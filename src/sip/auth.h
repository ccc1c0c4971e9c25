// SIP digest authentication (RFC 3261 §22 / RFC 2617, no-qop variant that
// 2004-era proxies like SIP Express Router shipped by default).
//
//   response = MD5( MD5(user:realm:password) : nonce : MD5(method:uri) )
//
// The registrar challenges REGISTER with 401 + WWW-Authenticate; the client
// retries with an Authorization header. The password-guessing attack of
// §3.3 brute-forces the `response` field against a fixed nonce.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "sip/scan.h"

namespace scidive::sip {

/// The digest-params grammar: `Digest k=v, k2="v2", ...`. Yields each
/// param in order with surrounding quotes stripped; keys compare
/// case-insensitively and the last occurrence of a key wins. A param
/// without '=' or with an empty name fails the whole list.
class DigestParamCursor {
 public:
  explicit DigestParamCursor(std::string_view header_value);

  /// False at the end of the list or on error; status() tells which.
  bool next(std::string_view& key, std::string_view& value);
  ParseStatus status() const { return status_; }

 private:
  str::SplitCursor parts_;
  ParseStatus status_;
};

/// Authorization credentials as slices of the header value.
struct DigestCredentialsView {
  std::string_view username;
  std::string_view realm;
  std::string_view nonce;
  std::string_view uri;
  std::string_view response;

  static ParseStatus parse(std::string_view header_value, DigestCredentialsView& out);
};

/// WWW-Authenticate challenge parameters.
struct DigestChallenge {
  std::string realm;
  std::string nonce;

  std::string to_header_value() const;
  static Result<DigestChallenge> parse(std::string_view header_value);
};

/// Authorization credentials presented by a client.
struct DigestCredentials {
  std::string username;
  std::string realm;
  std::string nonce;
  std::string uri;
  std::string response;  // 32 hex chars

  std::string to_header_value() const;
  static Result<DigestCredentials> parse(std::string_view header_value);
};

/// Compute the expected digest response.
std::string compute_digest_response(std::string_view username, std::string_view realm,
                                    std::string_view password, std::string_view method,
                                    std::string_view uri, std::string_view nonce);

/// Build credentials answering a challenge.
DigestCredentials answer_challenge(const DigestChallenge& challenge, std::string_view username,
                                   std::string_view password, std::string_view method,
                                   std::string_view uri);

/// Verify presented credentials against the known password.
bool verify_digest(const DigestCredentials& creds, std::string_view password,
                   std::string_view method);

}  // namespace scidive::sip
