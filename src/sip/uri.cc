#include "sip/uri.h"

#include "common/strings.h"

namespace scidive::sip {

ParseStatus UriView::parse(std::string_view text, UriView& out) {
  text = str::trim(text);
  if (!str::istarts_with(text, "sip:")) return parse_fail(Errc::kMalformed, "URI scheme must be sip:");
  text.remove_prefix(4);
  if (text.empty()) return parse_fail(Errc::kMalformed, "empty URI");

  out = UriView{};
  // Split off ;params first (they follow host[:port]).
  std::string_view core = text;
  if (const size_t semi = str::find_byte(text, ';'); semi != std::string_view::npos) {
    core = text.substr(0, semi);
    out.params = text.substr(semi + 1);
  }

  // user@host or just host.
  std::string_view hostport = core;
  if (const size_t at = str::find_byte(core, '@'); at != std::string_view::npos) {
    if (at == 0) return parse_fail(Errc::kMalformed, "empty user before @");
    out.user = core.substr(0, at);
    hostport = core.substr(at + 1);
  }
  // host[:port]: the host runs to the first ':' and may hold only
  // alphanumerics and . - _; a port must be a non-zero u16.
  size_t i = 0;
  for (; i < hostport.size() && hostport[i] != ':'; ++i) {
    const char c = hostport[i];
    if (!(str::is_alnum(c) || c == '.' || c == '-' || c == '_'))
      return parse_fail(Errc::kMalformed, "bad host character");
  }
  if (i < hostport.size()) {
    auto port = str::parse_u16(hostport.substr(i + 1));
    if (!port || *port == 0) return parse_fail(Errc::kMalformed, "bad port");
    out.port = *port;
  }
  if (i == 0) return parse_fail(Errc::kMalformed, "empty host");
  out.host = hostport.substr(0, i);
  return {};
}

SipUri SipUri::from_view(const UriView& view) {
  SipUri uri(std::string(view.user), std::string(view.host), view.port);
  ParamCursor params(view.params, /*trim_key_value=*/false);
  for (std::string_view k, v; params.next(k, v);) uri.params_[std::string(k)] = std::string(v);
  return uri;
}

Result<SipUri> SipUri::parse(std::string_view text) {
  UriView view;
  if (ParseStatus st = UriView::parse(text, view); !st.ok()) return st.error();
  return from_view(view);
}

std::optional<std::string> SipUri::param(std::string_view name) const {
  auto it = params_.find(name);
  if (it == params_.end()) return std::nullopt;
  return it->second;
}

std::string SipUri::to_string() const {
  std::string out = "sip:";
  if (!user_.empty()) {
    out += user_;
    out += '@';
  }
  out += host_;
  if (port_ != 0) out += str::format(":%u", port_);
  for (const auto& [k, v] : params_) {
    out += ';';
    out += k;
    if (!v.empty()) {
      out += '=';
      out += v;
    }
  }
  return out;
}

}  // namespace scidive::sip
