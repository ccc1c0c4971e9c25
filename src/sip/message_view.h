// MessageView: the single-pass SIP message scanner. One walk over the
// datagram slices the start line, every header line and the body; nothing
// is copied except the rare folded header line. A name index keeps the first
// value of each header the stack resolves (HeaderId), and the extractors
// below parse those values in place with the same grammars the owning
// SipMessage accessors use — SipMessage::parse is this scanner plus copies.
//
// Views point into the scanned text (or the view's own fold buffer): the
// text must outlive the view, and the view is neither copyable nor movable.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "pkt/addr.h"
#include "sip/headers.h"
#include "sip/scan.h"
#include "sip/uri.h"

namespace scidive::sip {

enum class Method {
  kInvite,
  kAck,
  kBye,
  kCancel,
  kRegister,
  kOptions,
  kMessage,  // instant messaging (RFC 3428)
  kInfo,
  kUnknown,
};

std::string_view method_name(Method m);
Method method_from_name(std::string_view name);

/// Receives every header field in message order (trimmed name and value,
/// folded lines already joined). Views are valid only during the call.
class HeaderVisitor {
 public:
  virtual void on_header(std::string_view name, std::string_view value) = 0;

 protected:
  ~HeaderVisitor() = default;
};

/// The structured-header grammars applied to an optional raw value (an
/// absent header parses as nothing). Shared by MessageView, SipMessage and
/// the distiller.
std::optional<CSeqView> parse_cseq(std::optional<std::string_view> value);
std::optional<NameAddrView> parse_name_addr(std::optional<std::string_view> value);
/// True when a Via field's top via-parm parses.
bool top_via_valid(std::optional<std::string_view> via_field);

/// RFC 3261 §8.1.1 over the mandatory headers' scan outcomes: Call-ID
/// present; CSeq, From, To and the top Via present and parseable
/// (Max-Forwards relaxed — many 2004 clients omitted it); and a request's
/// CSeq naming the request's own method text. `request_method` is unset
/// for responses.
bool mandatory_headers_valid(std::optional<std::string_view> request_method, bool has_call_id,
                             const std::optional<CSeqView>& cseq, bool from_ok, bool to_ok,
                             bool via_ok);

class MessageView {
 public:
  MessageView() = default;
  MessageView(const MessageView&) = delete;
  MessageView& operator=(const MessageView&) = delete;

  /// Scan `text`. Strict on structure (start line, request URI, header
  /// framing, Content-Length), tolerant of unknown headers; structured
  /// header values are checked only by the extractors. The body is the
  /// Content-Length prefix of what follows the blank line, or all of it.
  /// `visitor`, when given, sees every header field.
  ParseStatus parse(std::string_view text, HeaderVisitor* visitor = nullptr);

  bool is_request() const { return is_request_; }
  Method method() const { return method_; }
  std::string_view method_text() const { return method_text_; }
  const UriView& request_uri() const { return request_uri_; }
  int status_code() const { return status_code_; }
  std::string_view reason() const { return reason_; }
  std::string_view body() const { return body_; }

  /// First value of an indexed header (kOther is never indexed).
  std::optional<std::string_view> header(HeaderId id) const {
    const size_t i = static_cast<size_t>(id);
    if (i >= kHeaderIdCount || (present_ & (1u << i)) == 0) return std::nullopt;
    return first_[i];
  }
  bool has(HeaderId id) const { return header(id).has_value(); }

  // --- extractors: each parses its header in place, nothing is copied ---
  std::optional<CSeqView> cseq() const { return parse_cseq(header(HeaderId::kCSeq)); }
  std::optional<NameAddrView> from() const { return parse_name_addr(header(HeaderId::kFrom)); }
  std::optional<NameAddrView> to() const { return parse_name_addr(header(HeaderId::kTo)); }
  std::optional<NameAddrView> contact() const {
    return parse_name_addr(header(HeaderId::kContact));
  }
  bool top_via_valid() const { return sip::top_via_valid(header(HeaderId::kVia)); }
  /// The request's method text, unset for responses (mandatory_headers_valid).
  std::optional<std::string_view> request_method() const {
    return is_request_ ? std::optional<std::string_view>(method_text_) : std::nullopt;
  }
  bool well_formed() const;
  /// The Authorization digest `response=` when the credentials parse.
  std::optional<std::string_view> digest_response() const;
  /// The Contact URI's host:port (port defaulting to 5060) when the host is
  /// an IPv4 literal.
  std::optional<pkt::Endpoint> contact_endpoint() const;
  /// The SDP body's first audio stream endpoint (see sdp_audio_endpoint).
  std::optional<pkt::Endpoint> sdp_media() const;

 private:
  bool next_line(std::string_view& text, std::string_view& line);

  bool is_request_ = true;
  Method method_ = Method::kUnknown;
  std::string_view method_text_;
  UriView request_uri_;
  int status_code_ = 0;
  std::string_view reason_;
  std::string_view body_;
  uint32_t present_ = 0;
  std::array<std::string_view, kHeaderIdCount> first_{};
  size_t text_size_ = 0;
  /// Joined folded lines. Reserved to the scanned text's size on first use,
  /// which bounds every fold, so it never reallocates under earlier views.
  std::string folded_;
};

}  // namespace scidive::sip
