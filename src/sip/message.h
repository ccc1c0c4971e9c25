// SIP message model, parser and serializer (RFC 3261 subset sufficient for
// a 2004-era VoIP deployment: REGISTER/INVITE/ACK/BYE/CANCEL/OPTIONS/
// MESSAGE, re-INVITE, digest auth headers, SDP bodies).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/result.h"
#include "sip/headers.h"
#include "sip/message_view.h"
#include "sip/uri.h"

namespace scidive::sip {

/// Response status classes the IDS reasons about.
inline int status_class(int code) { return code / 100; }

class SipMessage {
 public:
  /// Build a request skeleton (start line only; headers added by caller).
  static SipMessage request(Method method, SipUri request_uri);
  /// Build a response skeleton.
  static SipMessage response(int status_code, std::string reason);

  /// Parse from wire bytes: MessageView::parse (same acceptance rules)
  /// plus owning copies of the start line, every header and the body.
  /// Structured headers are validated lazily by the accessors below.
  static Result<SipMessage> parse(std::string_view text);
  static Result<SipMessage> parse(std::span<const uint8_t> bytes);

  /// Serialize to wire format. Content-Length is always emitted.
  std::string to_string() const;

  bool is_request() const { return is_request_; }
  bool is_response() const { return !is_request_; }

  // Request accessors.
  Method method() const { return method_; }
  const std::string& method_text() const { return method_text_; }
  const SipUri& request_uri() const { return request_uri_; }
  void set_request_uri(SipUri uri) { request_uri_ = std::move(uri); }

  // Response accessors.
  int status_code() const { return status_code_; }
  const std::string& reason() const { return reason_; }

  Headers& headers() { return headers_; }
  const Headers& headers() const { return headers_; }

  const std::string& body() const { return body_; }
  void set_body(std::string body, std::string content_type);

  // --- structured header conveniences (parse on access) ---
  std::optional<std::string> call_id() const;
  Result<CSeq> cseq() const;
  Result<NameAddr> from() const;
  Result<NameAddr> to() const;
  Result<NameAddr> contact() const;
  Result<Via> top_via() const;
  std::optional<uint32_t> expires() const;
  std::optional<uint32_t> max_forwards() const;

  /// True when every mandatory header for this message kind is present and
  /// parses (the Billing-fraud rule's "correct format" check, §3.2).
  bool well_formed() const;

 private:
  SipMessage() = default;

  bool is_request_ = true;
  Method method_ = Method::kUnknown;
  std::string method_text_;
  SipUri request_uri_;
  int status_code_ = 0;
  std::string reason_;
  Headers headers_;
  std::string body_;
};

}  // namespace scidive::sip
