#include "sip/headers.h"

#include <algorithm>

#include "common/strings.h"

namespace scidive::sip {

namespace {

/// Long names by HeaderId (RFC 3261 §7.3.3 gives the compact forms).
constexpr std::string_view kLongNames[kHeaderIdCount] = {
    "Via",          "From",          "To",               "Call-ID",      "CSeq",
    "Contact",      "Content-Length", "Authorization",   "WWW-Authenticate",
    "Content-Type", "Content-Encoding", "Subject",       "Supported",
};

}  // namespace

HeaderId header_id(std::string_view name) {
  // Dispatch on length first: a header line pays at most two
  // case-insensitive compares, whatever its name.
  auto is = [&](HeaderId id) { return str::iequals(name, kLongNames[static_cast<size_t>(id)]); };
  switch (name.size()) {
    case 1:
      switch (str::to_lower(name[0])) {
        case 'v': return HeaderId::kVia;
        case 'f': return HeaderId::kFrom;
        case 't': return HeaderId::kTo;
        case 'i': return HeaderId::kCallId;
        case 'm': return HeaderId::kContact;
        case 'c': return HeaderId::kContentType;
        case 'l': return HeaderId::kContentLength;
        case 'e': return HeaderId::kContentEncoding;
        case 's': return HeaderId::kSubject;
        case 'k': return HeaderId::kSupported;
        default: return HeaderId::kOther;
      }
    case 2: return is(HeaderId::kTo) ? HeaderId::kTo : HeaderId::kOther;
    case 3: return is(HeaderId::kVia) ? HeaderId::kVia : HeaderId::kOther;
    case 4:
      if (is(HeaderId::kFrom)) return HeaderId::kFrom;
      return is(HeaderId::kCSeq) ? HeaderId::kCSeq : HeaderId::kOther;
    case 7:
      if (is(HeaderId::kCallId)) return HeaderId::kCallId;
      if (is(HeaderId::kContact)) return HeaderId::kContact;
      return is(HeaderId::kSubject) ? HeaderId::kSubject : HeaderId::kOther;
    case 9: return is(HeaderId::kSupported) ? HeaderId::kSupported : HeaderId::kOther;
    case 12: return is(HeaderId::kContentType) ? HeaderId::kContentType : HeaderId::kOther;
    case 13: return is(HeaderId::kAuthorization) ? HeaderId::kAuthorization : HeaderId::kOther;
    case 14: return is(HeaderId::kContentLength) ? HeaderId::kContentLength : HeaderId::kOther;
    case 16:
      if (is(HeaderId::kWwwAuthenticate)) return HeaderId::kWwwAuthenticate;
      return is(HeaderId::kContentEncoding) ? HeaderId::kContentEncoding : HeaderId::kOther;
    default: return HeaderId::kOther;
  }
}

std::string_view canonical_header_name(std::string_view name) {
  if (name.size() != 1) return name;
  const HeaderId id = header_id(name);
  return id == HeaderId::kOther ? name : kLongNames[static_cast<size_t>(id)];
}

namespace {
bool header_name_equals(std::string_view a, std::string_view b) {
  return str::iequals(canonical_header_name(a), canonical_header_name(b));
}
}  // namespace

void Headers::add(std::string name, std::string value) {
  fields_.push_back({std::move(name), std::move(value)});
}

void Headers::set(std::string name, std::string value) {
  remove(name);
  add(std::move(name), std::move(value));
}

void Headers::remove(std::string_view name) {
  std::erase_if(fields_, [&](const HeaderField& f) { return header_name_equals(f.name, name); });
}

std::optional<std::string_view> Headers::get(std::string_view name) const {
  for (const auto& f : fields_) {
    if (header_name_equals(f.name, name)) return std::string_view(f.value);
  }
  return std::nullopt;
}

std::vector<std::string_view> Headers::get_all(std::string_view name) const {
  std::vector<std::string_view> out;
  for (const auto& f : fields_) {
    if (header_name_equals(f.name, name)) out.push_back(f.value);
  }
  return out;
}

// --- NameAddr ---

ParseStatus NameAddrView::parse(std::string_view text, NameAddrView& out) {
  text = str::trim(text);
  out = NameAddrView{};
  std::string_view uri_part;

  size_t lt = text.find('<');
  if (lt != std::string_view::npos) {
    size_t gt = text.find('>', lt);
    if (gt == std::string_view::npos) return parse_fail(Errc::kMalformed, "unterminated <uri>");
    std::string_view display = str::trim(text.substr(0, lt));
    if (display.size() >= 2 && display.front() == '"' && display.back() == '"')
      display = display.substr(1, display.size() - 2);
    out.display_name = display;
    uri_part = text.substr(lt + 1, gt - lt - 1);
    out.params = text.substr(gt + 1);
  } else {
    // addr-spec form: URI up to the first ';' is the URI, the rest are
    // header params (per RFC 3261, params after a bare addr-spec belong to
    // the header, not the URI).
    if (auto semi = str::split_once(text, ';')) {
      uri_part = semi->first;
      out.params = text.substr(semi->first.size());
    } else {
      uri_part = text;
    }
  }
  return UriView::parse(uri_part, out.uri);
}

std::optional<std::string_view> NameAddrView::tag() const {
  std::optional<std::string_view> tag;
  ParamCursor cursor(params, /*trim_key_value=*/true);
  for (std::string_view k, v; cursor.next(k, v);) {
    if (k == "tag") tag = v;
  }
  return tag;
}

Result<NameAddr> NameAddr::parse(std::string_view text) {
  NameAddrView view;
  if (ParseStatus st = NameAddrView::parse(text, view); !st.ok()) return st.error();
  NameAddr na;
  na.display_name = std::string(view.display_name);
  na.uri = SipUri::from_view(view.uri);
  ParamCursor cursor(view.params, /*trim_key_value=*/true);
  for (std::string_view k, v; cursor.next(k, v);) na.params[std::string(k)] = std::string(v);
  return na;
}

std::string NameAddr::to_string() const {
  std::string out;
  if (!display_name.empty()) {
    out += '"';
    out += display_name;
    out += "\" ";
  }
  out += '<';
  out += uri.to_string();
  out += '>';
  for (const auto& [k, v] : params) {
    out += ';';
    out += k;
    if (!v.empty()) {
      out += '=';
      out += v;
    }
  }
  return out;
}

// --- Via ---

ParseStatus ViaView::parse(std::string_view text, ViaView& out) {
  text = str::trim(text);
  // SIP/2.0/UDP host[:port][;params]
  if (!str::istarts_with(text, "SIP/2.0/"))
    return parse_fail(Errc::kMalformed, "Via must start with SIP/2.0/");
  text.remove_prefix(8);
  auto sp = text.find(' ');
  if (sp == std::string_view::npos) return parse_fail(Errc::kMalformed, "Via missing sent-by");
  out = ViaView{};
  out.transport = str::trim(text.substr(0, sp));
  std::string_view rest = str::trim(text.substr(sp + 1));

  std::string_view hostport = rest;
  if (auto semi = str::split_once(rest, ';')) {
    hostport = str::trim(semi->first);
    out.params = semi->second;
  }
  if (auto colon = str::split_once(hostport, ':')) {
    auto port = str::parse_u16(colon->second);
    if (!port) return parse_fail(Errc::kMalformed, "Via bad port");
    out.port = *port;
    hostport = colon->first;
  }
  if (hostport.empty()) return parse_fail(Errc::kMalformed, "Via empty host");
  out.host = hostport;
  return {};
}

std::string_view top_via_value(std::string_view via_field) {
  // Multiple Vias may be comma-joined in one field; the top one is first.
  if (auto comma = str::split_once(via_field, ',')) return comma->first;
  return via_field;
}

Result<Via> Via::parse(std::string_view text) {
  ViaView view;
  if (ParseStatus st = ViaView::parse(text, view); !st.ok()) return st.error();
  Via via;
  via.transport = std::string(view.transport);
  via.host = std::string(view.host);
  via.port = view.port;
  ParamCursor cursor(view.params, /*trim_key_value=*/false);
  for (std::string_view k, v; cursor.next(k, v);) via.params[std::string(k)] = std::string(v);
  return via;
}

std::string Via::to_string() const {
  std::string out = "SIP/2.0/" + transport + " " + host;
  if (port != 0) out += str::format(":%u", port);
  for (const auto& [k, v] : params) {
    out += ';';
    out += k;
    if (!v.empty()) {
      out += '=';
      out += v;
    }
  }
  return out;
}

// --- CSeq ---

ParseStatus CSeqView::parse(std::string_view text, CSeqView& out) {
  text = str::trim(text);
  auto sp = str::split_once(text, ' ');
  if (!sp) return parse_fail(Errc::kMalformed, "CSeq needs 'number METHOD'");
  auto num = str::parse_u32(str::trim(sp->first));
  if (!num) return parse_fail(Errc::kMalformed, "CSeq bad number");
  std::string_view method = str::trim(sp->second);
  if (method.empty()) return parse_fail(Errc::kMalformed, "CSeq empty method");
  out = CSeqView{*num, method};
  return {};
}

Result<CSeq> CSeq::parse(std::string_view text) {
  CSeqView view;
  if (ParseStatus st = CSeqView::parse(text, view); !st.ok()) return st.error();
  return CSeq{view.number, std::string(view.method)};
}

std::string CSeq::to_string() const { return str::format("%u %s", number, method.c_str()); }

}  // namespace scidive::sip
