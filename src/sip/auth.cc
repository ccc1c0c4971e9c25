#include "sip/auth.h"

#include "common/md5.h"
#include "common/strings.h"

namespace scidive::sip {
namespace {

std::string quote(std::string_view s) { return "\"" + std::string(s) + "\""; }

}  // namespace

std::string DigestChallenge::to_header_value() const {
  return "Digest realm=" + quote(realm) + ", nonce=" + quote(nonce) + ", algorithm=MD5";
}

Result<DigestChallenge> DigestChallenge::parse(std::string_view header_value) {
  DigestParamCursor params(header_value);
  std::optional<std::string_view> realm, nonce;
  for (std::string_view k, v; params.next(k, v);) {
    if (str::iequals(k, "realm")) realm = v;
    else if (str::iequals(k, "nonce")) nonce = v;
  }
  if (!params.status().ok()) return params.status().error();
  if (!realm || !nonce) return Error{Errc::kMalformed, "challenge needs realm and nonce"};
  return DigestChallenge{std::string(*realm), std::string(*nonce)};
}

std::string DigestCredentials::to_header_value() const {
  return "Digest username=" + quote(username) + ", realm=" + quote(realm) + ", nonce=" +
         quote(nonce) + ", uri=" + quote(uri) + ", response=" + quote(response);
}

DigestParamCursor::DigestParamCursor(std::string_view header_value) : parts_({}, ',') {
  header_value = str::trim(header_value);
  if (!str::istarts_with(header_value, "Digest")) {
    status_ = parse_fail(Errc::kUnsupported, "not a Digest header");
    return;
  }
  header_value.remove_prefix(6);
  parts_ = str::SplitCursor(header_value, ',');
}

bool DigestParamCursor::next(std::string_view& key, std::string_view& value) {
  if (!status_.ok()) return false;
  for (std::string_view part; parts_.next(part);) {
    part = str::trim(part);
    if (part.empty()) continue;
    auto eq = str::split_once(part, '=');
    if (!eq) {
      status_ = parse_fail(Errc::kMalformed, "digest param without '='");
      return false;
    }
    key = str::trim(eq->first);
    value = str::trim(eq->second);
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"')
      value = value.substr(1, value.size() - 2);
    if (key.empty()) {
      status_ = parse_fail(Errc::kMalformed, "empty digest param name");
      return false;
    }
    return true;
  }
  return false;
}

ParseStatus DigestCredentialsView::parse(std::string_view header_value,
                                         DigestCredentialsView& out) {
  DigestParamCursor params(header_value);
  std::string_view* const fields[] = {&out.username, &out.realm, &out.nonce, &out.uri,
                                      &out.response};
  static constexpr const char* kNames[] = {"username", "realm", "nonce", "uri", "response"};
  static constexpr const char* kMissing[] = {
      "credentials missing username", "credentials missing realm",
      "credentials missing nonce", "credentials missing uri", "credentials missing response"};
  unsigned seen = 0;
  for (std::string_view k, v; params.next(k, v);) {
    for (unsigned i = 0; i < 5; ++i) {
      if (str::iequals(k, kNames[i])) {
        *fields[i] = v;
        seen |= 1u << i;
        break;
      }
    }
  }
  if (!params.status().ok()) return params.status();
  for (unsigned i = 0; i < 5; ++i) {
    if ((seen & (1u << i)) == 0) return parse_fail(Errc::kMalformed, kMissing[i]);
  }
  return {};
}

Result<DigestCredentials> DigestCredentials::parse(std::string_view header_value) {
  DigestCredentialsView view;
  if (ParseStatus st = DigestCredentialsView::parse(header_value, view); !st.ok())
    return st.error();
  return DigestCredentials{std::string(view.username), std::string(view.realm),
                           std::string(view.nonce), std::string(view.uri),
                           std::string(view.response)};
}

std::string compute_digest_response(std::string_view username, std::string_view realm,
                                    std::string_view password, std::string_view method,
                                    std::string_view uri, std::string_view nonce) {
  std::string ha1 = Md5::hex(std::string(username) + ":" + std::string(realm) + ":" +
                             std::string(password));
  std::string ha2 = Md5::hex(std::string(method) + ":" + std::string(uri));
  return Md5::hex(ha1 + ":" + std::string(nonce) + ":" + ha2);
}

DigestCredentials answer_challenge(const DigestChallenge& challenge, std::string_view username,
                                   std::string_view password, std::string_view method,
                                   std::string_view uri) {
  DigestCredentials c;
  c.username = std::string(username);
  c.realm = challenge.realm;
  c.nonce = challenge.nonce;
  c.uri = std::string(uri);
  c.response = compute_digest_response(username, challenge.realm, password, method, uri,
                                       challenge.nonce);
  return c;
}

bool verify_digest(const DigestCredentials& creds, std::string_view password,
                   std::string_view method) {
  std::string expected = compute_digest_response(creds.username, creds.realm, password, method,
                                                 creds.uri, creds.nonce);
  return expected == creds.response;
}

}  // namespace scidive::sip
