#include "sip/message.h"

#include "common/strings.h"

namespace scidive::sip {

SipMessage SipMessage::request(Method method, SipUri request_uri) {
  SipMessage m;
  m.is_request_ = true;
  m.method_ = method;
  m.method_text_ = std::string(method_name(method));
  m.request_uri_ = std::move(request_uri);
  return m;
}

SipMessage SipMessage::response(int status_code, std::string reason) {
  SipMessage m;
  m.is_request_ = false;
  m.status_code_ = status_code;
  m.reason_ = std::move(reason);
  return m;
}

Result<SipMessage> SipMessage::parse(std::span<const uint8_t> bytes) {
  return parse(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

Result<SipMessage> SipMessage::parse(std::string_view text) {
  struct Collect final : HeaderVisitor {
    Headers* headers;
    explicit Collect(Headers* h) : headers(h) {}
    void on_header(std::string_view name, std::string_view value) override {
      headers->add(std::string(name), std::string(value));
    }
  };
  SipMessage msg;
  Collect collect(&msg.headers_);
  MessageView view;
  if (ParseStatus st = view.parse(text, &collect); !st.ok()) return st.error();
  msg.is_request_ = view.is_request();
  if (view.is_request()) {
    msg.method_ = view.method();
    msg.method_text_ = std::string(view.method_text());
    msg.request_uri_ = SipUri::from_view(view.request_uri());
  } else {
    msg.status_code_ = view.status_code();
    msg.reason_ = std::string(view.reason());
  }
  msg.body_ = std::string(view.body());
  return msg;
}

std::string SipMessage::to_string() const {
  std::string out;
  if (is_request_) {
    out += method_text_.empty() ? std::string(method_name(method_)) : method_text_;
    out += ' ';
    out += request_uri_.to_string();
    out += " SIP/2.0\r\n";
  } else {
    out += str::format("SIP/2.0 %d %s\r\n", status_code_, reason_.c_str());
  }
  bool wrote_content_length = false;
  for (const auto& f : headers_.fields()) {
    if (str::iequals(canonical_header_name(f.name), "Content-Length")) {
      if (wrote_content_length) continue;
      out += str::format("Content-Length: %zu\r\n", body_.size());
      wrote_content_length = true;
      continue;
    }
    out += f.name;
    out += ": ";
    out += f.value;
    out += "\r\n";
  }
  if (!wrote_content_length) out += str::format("Content-Length: %zu\r\n", body_.size());
  out += "\r\n";
  out += body_;
  return out;
}

void SipMessage::set_body(std::string body, std::string content_type) {
  body_ = std::move(body);
  headers_.set("Content-Type", std::move(content_type));
}

std::optional<std::string> SipMessage::call_id() const {
  auto v = headers_.get("Call-ID");
  if (!v) return std::nullopt;
  return std::string(str::trim(*v));
}

Result<CSeq> SipMessage::cseq() const {
  auto v = headers_.get("CSeq");
  if (!v) return Error{Errc::kNotFound, "no CSeq"};
  return CSeq::parse(*v);
}

Result<NameAddr> SipMessage::from() const {
  auto v = headers_.get("From");
  if (!v) return Error{Errc::kNotFound, "no From"};
  return NameAddr::parse(*v);
}

Result<NameAddr> SipMessage::to() const {
  auto v = headers_.get("To");
  if (!v) return Error{Errc::kNotFound, "no To"};
  return NameAddr::parse(*v);
}

Result<NameAddr> SipMessage::contact() const {
  auto v = headers_.get("Contact");
  if (!v) return Error{Errc::kNotFound, "no Contact"};
  return NameAddr::parse(*v);
}

Result<Via> SipMessage::top_via() const {
  auto v = headers_.get("Via");
  if (!v) return Error{Errc::kNotFound, "no Via"};
  return Via::parse(top_via_value(*v));
}

std::optional<uint32_t> SipMessage::expires() const {
  auto v = headers_.get("Expires");
  if (!v) return std::nullopt;
  return str::parse_u32(str::trim(*v));
}

std::optional<uint32_t> SipMessage::max_forwards() const {
  auto v = headers_.get("Max-Forwards");
  if (!v) return std::nullopt;
  return str::parse_u32(str::trim(*v));
}

bool SipMessage::well_formed() const {
  std::optional<std::string_view> request_method;
  if (is_request_) {
    request_method = method_text_.empty() ? method_name(method_) : std::string_view(method_text_);
  }
  return mandatory_headers_valid(request_method, headers_.has("Call-ID"),
                                 parse_cseq(headers_.get("CSeq")),
                                 parse_name_addr(headers_.get("From")).has_value(),
                                 parse_name_addr(headers_.get("To")).has_value(),
                                 top_via_valid(headers_.get("Via")));
}

}  // namespace scidive::sip
