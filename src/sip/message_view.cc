#include "sip/message_view.h"

#include "common/strings.h"
#include "sip/auth.h"
#include "sip/sdp.h"

namespace scidive::sip {

std::string_view method_name(Method m) {
  switch (m) {
    case Method::kInvite: return "INVITE";
    case Method::kAck: return "ACK";
    case Method::kBye: return "BYE";
    case Method::kCancel: return "CANCEL";
    case Method::kRegister: return "REGISTER";
    case Method::kOptions: return "OPTIONS";
    case Method::kMessage: return "MESSAGE";
    case Method::kInfo: return "INFO";
    case Method::kUnknown: return "UNKNOWN";
  }
  return "UNKNOWN";
}

Method method_from_name(std::string_view name) {
  // Method names are case-sensitive tokens in SIP; match exactly.
  if (name == "INVITE") return Method::kInvite;
  if (name == "ACK") return Method::kAck;
  if (name == "BYE") return Method::kBye;
  if (name == "CANCEL") return Method::kCancel;
  if (name == "REGISTER") return Method::kRegister;
  if (name == "OPTIONS") return Method::kOptions;
  if (name == "MESSAGE") return Method::kMessage;
  if (name == "INFO") return Method::kInfo;
  return Method::kUnknown;
}

std::optional<CSeqView> parse_cseq(std::optional<std::string_view> value) {
  CSeqView cs;
  if (!value || !CSeqView::parse(*value, cs).ok()) return std::nullopt;
  return cs;
}

std::optional<NameAddrView> parse_name_addr(std::optional<std::string_view> value) {
  NameAddrView na;
  if (!value || !NameAddrView::parse(*value, na).ok()) return std::nullopt;
  return na;
}

bool top_via_valid(std::optional<std::string_view> via_field) {
  ViaView via;
  return via_field && ViaView::parse(top_via_value(*via_field), via).ok();
}

bool mandatory_headers_valid(std::optional<std::string_view> request_method, bool has_call_id,
                             const std::optional<CSeqView>& cseq, bool from_ok, bool to_ok,
                             bool via_ok) {
  if (!has_call_id || !cseq || !from_ok || !to_ok || !via_ok) return false;
  return !request_method || cseq->method == *request_method;
}

/// Pop one logical line, honoring RFC 2822-style folding (continuation
/// lines begin with whitespace). An unfolded line — the overwhelming common
/// case — is a view into the input; a folded one is joined into folded_.
bool MessageView::next_line(std::string_view& text, std::string_view& line) {
  if (text.empty()) return false;
  std::string_view first;
  size_t eol = str::find_crlf(text);
  if (eol == std::string_view::npos) {
    first = text;
    text = {};
  } else {
    first = text.substr(0, eol);
    text.remove_prefix(eol + 2);
  }
  if (text.empty() || (text.front() != ' ' && text.front() != '\t')) {
    line = first;
    return true;
  }
  if (folded_.capacity() < text_size_) folded_.reserve(text_size_);
  const size_t start = folded_.size();
  folded_.append(first);
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    eol = str::find_crlf(text);
    if (eol == std::string_view::npos) {
      folded_.append(text);
      text = {};
    } else {
      folded_.append(text.substr(0, eol));
      text.remove_prefix(eol + 2);
    }
  }
  line = std::string_view(folded_).substr(start);
  return true;
}

ParseStatus MessageView::parse(std::string_view text, HeaderVisitor* visitor) {
  is_request_ = true;
  method_ = Method::kUnknown;
  method_text_ = {};
  request_uri_ = UriView{};
  status_code_ = 0;
  reason_ = {};
  body_ = {};
  present_ = 0;
  text_size_ = text.size();
  folded_.clear();

  std::string_view start;
  if (!next_line(text, start) || start.empty())
    return parse_fail(Errc::kMalformed, "missing start line");

  if (str::istarts_with(start, "SIP/2.0 ")) {
    // Status line: SIP/2.0 code reason
    is_request_ = false;
    std::string_view rest = start.substr(8);
    auto sp = str::split_once(rest, ' ');
    std::string_view code_text = sp ? sp->first : rest;
    auto code = str::parse_u32(str::trim(code_text));
    if (!code || *code < 100 || *code > 699) return parse_fail(Errc::kMalformed, "bad status code");
    status_code_ = static_cast<int>(*code);
    if (sp) reason_ = str::trim(sp->second);
  } else {
    // Request line: METHOD uri SIP/2.0 — exactly three space-separated tokens.
    str::SplitCursor tokens(start, ' ');
    std::string_view parts[3];
    size_t n = 0;
    for (std::string_view t; tokens.next(t); ++n) {
      if (n < 3) parts[n] = t;
    }
    if (n != 3) return parse_fail(Errc::kMalformed, "request line needs 3 tokens");
    if (parts[2] != "SIP/2.0") return parse_fail(Errc::kUnsupported, "not SIP/2.0");
    if (parts[0].empty()) return parse_fail(Errc::kMalformed, "empty method");
    method_text_ = parts[0];
    method_ = method_from_name(parts[0]);
    if (ParseStatus st = UriView::parse(parts[1], request_uri_); !st.ok()) return st;
  }

  // Headers until the empty line.
  for (;;) {
    std::string_view line;
    if (!next_line(text, line)) return parse_fail(Errc::kTruncated, "no end of headers");
    if (line.empty()) break;
    const size_t colon = str::find_byte(line, ':');
    if (colon == std::string_view::npos)
      return parse_fail(Errc::kMalformed, "header without colon");
    std::string_view name = str::trim(line.substr(0, colon));
    if (name.empty()) return parse_fail(Errc::kMalformed, "empty header name");
    std::string_view value = str::trim(line.substr(colon + 1));
    const size_t id = static_cast<size_t>(header_id(name));
    if (id < kHeaderIdCount && (present_ & (1u << id)) == 0) {
      present_ |= 1u << id;
      first_[id] = value;
    }
    if (visitor != nullptr) visitor->on_header(name, value);
  }

  // Body: take Content-Length if present and valid, else the rest.
  if (auto cl_text = header(HeaderId::kContentLength)) {
    auto cl = str::parse_u64(*cl_text);
    if (!cl) return parse_fail(Errc::kMalformed, "bad Content-Length");
    if (*cl > text.size()) return parse_fail(Errc::kTruncated, "body shorter than Content-Length");
    body_ = text.substr(0, *cl);
  } else {
    body_ = text;
  }
  return {};
}

bool MessageView::well_formed() const {
  return mandatory_headers_valid(request_method(), has(HeaderId::kCallId), cseq(),
                                 from().has_value(), to().has_value(), top_via_valid());
}

std::optional<std::string_view> MessageView::digest_response() const {
  auto v = header(HeaderId::kAuthorization);
  DigestCredentialsView creds;
  if (!v || !DigestCredentialsView::parse(*v, creds).ok()) return std::nullopt;
  return creds.response;
}

std::optional<pkt::Endpoint> MessageView::contact_endpoint() const {
  auto na = contact();
  if (!na) return std::nullopt;
  auto ip = pkt::Ipv4Address::parse(na->uri.host);
  if (!ip) return std::nullopt;
  return pkt::Endpoint{*ip, na->uri.port != 0 ? na->uri.port : uint16_t{5060}};
}

std::optional<pkt::Endpoint> MessageView::sdp_media() const { return sdp_audio_endpoint(body_); }

}  // namespace scidive::sip
