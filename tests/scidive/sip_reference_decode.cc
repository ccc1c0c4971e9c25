#include "scidive/sip_reference_decode.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "pkt/packet.h"
#include "scidive/distiller.h"

namespace scidive::sip_reference {
namespace {

// --- frozen object-model grammar ---------------------------------------

struct Uri {
  std::string user;
  std::string host;
  uint16_t port = 0;

  std::string address_of_record() const { return user.empty() ? host : user + "@" + host; }
};

std::optional<Uri> parse_uri(std::string_view text) {
  text = str::trim(text);
  if (!str::istarts_with(text, "sip:")) return std::nullopt;
  text.remove_prefix(4);
  if (text.empty()) return std::nullopt;
  Uri uri;
  std::string_view core = text;
  if (auto split = str::split_once(text, ';')) core = split->first;  // params never fail
  std::string_view hostport = core;
  if (auto at = str::split_once(core, '@')) {
    if (at->first.empty()) return std::nullopt;
    uri.user = std::string(at->first);
    hostport = at->second;
  }
  if (auto colon = str::split_once(hostport, ':')) {
    auto port = str::parse_u16(colon->second);
    if (!port || *port == 0) return std::nullopt;
    uri.port = *port;
    hostport = colon->first;
  }
  if (hostport.empty()) return std::nullopt;
  for (char c : hostport) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '-' || c == '_'))
      return std::nullopt;
  }
  uri.host = std::string(hostport);
  return uri;
}

struct NameAddr {
  Uri uri;
  std::map<std::string, std::string, std::less<>> params;

  std::optional<std::string> tag() const {
    auto it = params.find("tag");
    if (it == params.end()) return std::nullopt;
    return it->second;
  }
};

std::optional<NameAddr> parse_name_addr(std::string_view text) {
  text = str::trim(text);
  NameAddr na;
  std::string_view uri_part;
  std::string_view after_uri;
  size_t lt = text.find('<');
  if (lt != std::string_view::npos) {
    size_t gt = text.find('>', lt);
    if (gt == std::string_view::npos) return std::nullopt;
    uri_part = text.substr(lt + 1, gt - lt - 1);
    after_uri = text.substr(gt + 1);
  } else if (auto semi = str::split_once(text, ';')) {
    uri_part = semi->first;
    after_uri = text.substr(semi->first.size());
  } else {
    uri_part = text;
  }
  auto uri = parse_uri(uri_part);
  if (!uri) return std::nullopt;
  na.uri = std::move(*uri);
  for (auto p : str::split(after_uri, ';')) {
    p = str::trim(p);
    if (p.empty()) continue;
    if (auto eq = str::split_once(p, '=')) {
      na.params[std::string(str::trim(eq->first))] = std::string(str::trim(eq->second));
    } else {
      na.params[std::string(p)] = "";
    }
  }
  return na;
}

bool via_parses(std::string_view text) {
  text = str::trim(text);
  if (!str::istarts_with(text, "SIP/2.0/")) return false;
  text.remove_prefix(8);
  auto sp = text.find(' ');
  if (sp == std::string_view::npos) return false;
  std::string_view rest = str::trim(text.substr(sp + 1));
  std::string_view hostport = rest;
  if (auto semi = str::split_once(rest, ';')) hostport = str::trim(semi->first);
  if (auto colon = str::split_once(hostport, ':')) {
    if (!str::parse_u16(colon->second)) return false;
    hostport = colon->first;
  }
  return !hostport.empty();
}

struct CSeq {
  uint32_t number = 0;
  std::string method;
};

std::optional<CSeq> parse_cseq(std::string_view text) {
  text = str::trim(text);
  auto sp = str::split_once(text, ' ');
  if (!sp) return std::nullopt;
  auto num = str::parse_u32(str::trim(sp->first));
  if (!num) return std::nullopt;
  std::string_view method = str::trim(sp->second);
  if (method.empty()) return std::nullopt;
  return CSeq{*num, std::string(method)};
}

std::optional<std::string> digest_response(std::string_view header_value) {
  header_value = str::trim(header_value);
  if (!str::istarts_with(header_value, "Digest")) return std::nullopt;
  header_value.remove_prefix(6);
  std::map<std::string, std::string, std::less<>> params;
  for (auto part : str::split(header_value, ',')) {
    part = str::trim(part);
    if (part.empty()) continue;
    auto eq = str::split_once(part, '=');
    if (!eq) return std::nullopt;
    std::string_view key = str::trim(eq->first);
    std::string_view value = str::trim(eq->second);
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"')
      value = value.substr(1, value.size() - 2);
    if (key.empty()) return std::nullopt;
    params[str::to_lower(key)] = std::string(value);
  }
  for (const char* required : {"username", "realm", "nonce", "uri", "response"}) {
    if (!params.contains(required)) return std::nullopt;
  }
  return params.find("response")->second;
}

std::optional<pkt::Endpoint> sdp_audio(std::string_view text) {
  std::string connection_addr;
  std::vector<std::pair<std::string, uint16_t>> media;  // (type, port)
  bool saw_version = false;
  for (auto raw_line : str::split(text, '\n')) {
    std::string_view line = str::trim(raw_line);
    if (line.empty()) continue;
    if (line.size() < 2 || line[1] != '=') return std::nullopt;
    std::string_view value = line.substr(2);
    switch (line[0]) {
      case 'v':
        if (str::trim(value) != "0") return std::nullopt;
        saw_version = true;
        break;
      case 'o': {
        auto parts = str::split(value, ' ');
        if (parts.size() < 6) return std::nullopt;
        if (!str::parse_u64(parts[1]) || !str::parse_u64(parts[2])) return std::nullopt;
        break;
      }
      case 'c': {
        auto parts = str::split(value, ' ');
        if (parts.size() != 3 || parts[0] != "IN" || parts[1] != "IP4") return std::nullopt;
        connection_addr = std::string(parts[2]);
        break;
      }
      case 'm': {
        auto parts = str::split(value, ' ');
        if (parts.size() < 3) return std::nullopt;
        auto port = str::parse_u16(parts[1]);
        if (!port) return std::nullopt;
        for (size_t i = 3; i < parts.size(); ++i) {
          auto pt = str::parse_u32(parts[i]);
          if (!pt || *pt > 127) return std::nullopt;
        }
        media.emplace_back(std::string(parts[0]), *port);
        break;
      }
      default:
        break;
    }
  }
  if (!saw_version) return std::nullopt;
  for (const auto& [type, port] : media) {
    if (type != "audio") continue;
    auto ip = pkt::Ipv4Address::parse(connection_addr);
    if (!ip) return std::nullopt;
    return pkt::Endpoint{*ip, port};
  }
  return std::nullopt;
}

std::string_view canonical_header_name(std::string_view name) {
  if (name.size() == 1) {
    switch (std::tolower(static_cast<unsigned char>(name[0]))) {
      case 'v': return "Via";
      case 'f': return "From";
      case 't': return "To";
      case 'i': return "Call-ID";
      case 'm': return "Contact";
      case 'c': return "Content-Type";
      case 'l': return "Content-Length";
      case 'e': return "Content-Encoding";
      case 's': return "Subject";
      case 'k': return "Supported";
      default: break;
    }
  }
  return name;
}

struct Message {
  bool is_request = true;
  std::string method_text;
  int status_code = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  std::optional<std::string_view> get(std::string_view name) const {
    for (const auto& [n, v] : headers) {
      if (str::iequals(canonical_header_name(n), canonical_header_name(name))) return v;
    }
    return std::nullopt;
  }
};

std::optional<std::string_view> next_logical_line(std::string_view& text, std::string& fold_buf) {
  if (text.empty()) return std::nullopt;
  std::string_view first;
  size_t eol = str::find_crlf(text);
  if (eol == std::string_view::npos) {
    first = text;
    text = {};
  } else {
    first = text.substr(0, eol);
    text.remove_prefix(eol + 2);
  }
  if (text.empty() || (text.front() != ' ' && text.front() != '\t')) return first;
  fold_buf.assign(first);
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    eol = str::find_crlf(text);
    if (eol == std::string_view::npos) {
      fold_buf += text;
      text = {};
    } else {
      fold_buf += text.substr(0, eol);
      text.remove_prefix(eol + 2);
    }
  }
  return std::string_view(fold_buf);
}

Errc parse_message(std::string_view text, Message& msg) {
  std::string fold_buf;
  auto start = next_logical_line(text, fold_buf);
  if (!start || start->empty()) return Errc::kMalformed;
  if (str::istarts_with(*start, "SIP/2.0 ")) {
    msg.is_request = false;
    std::string_view rest = start->substr(8);
    auto sp = str::split_once(rest, ' ');
    auto code = str::parse_u32(str::trim(sp ? sp->first : rest));
    if (!code || *code < 100 || *code > 699) return Errc::kMalformed;
    msg.status_code = static_cast<int>(*code);
  } else {
    auto parts = str::split(*start, ' ');
    if (parts.size() != 3) return Errc::kMalformed;
    if (parts[2] != "SIP/2.0") return Errc::kUnsupported;
    if (parts[0].empty()) return Errc::kMalformed;
    msg.method_text = std::string(parts[0]);
    if (!parse_uri(parts[1])) return Errc::kMalformed;
  }
  while (true) {
    auto line = next_logical_line(text, fold_buf);
    if (!line) return Errc::kTruncated;
    if (line->empty()) break;
    auto colon = str::split_once(*line, ':');
    if (!colon) return Errc::kMalformed;
    std::string_view name = str::trim(colon->first);
    if (name.empty()) return Errc::kMalformed;
    msg.headers.emplace_back(std::string(name), std::string(str::trim(colon->second)));
  }
  if (auto cl_text = msg.get("Content-Length")) {
    auto cl = str::parse_u64(str::trim(*cl_text));
    if (!cl) return Errc::kMalformed;
    if (*cl > text.size()) return Errc::kTruncated;
    msg.body = std::string(text.substr(0, *cl));
  } else {
    msg.body = std::string(text);
  }
  return Errc::kOk;
}

bool well_formed(const Message& msg) {
  if (!msg.get("Call-ID")) return false;
  auto cseq_text = msg.get("CSeq");
  auto cs = cseq_text ? parse_cseq(*cseq_text) : std::nullopt;
  if (!cs) return false;
  auto from = msg.get("From");
  if (!from || !parse_name_addr(*from)) return false;
  auto to = msg.get("To");
  if (!to || !parse_name_addr(*to)) return false;
  auto via = msg.get("Via");
  if (!via) return false;
  std::string_view top = *via;
  if (auto comma = str::split_once(top, ',')) top = comma->first;
  if (!via_parses(top)) return false;
  return !msg.is_request || cs->method == msg.method_text;
}

}  // namespace

Decoded decode(std::string_view payload) {
  Decoded out;
  Message msg;
  out.error = parse_message(payload, msg);
  core::SipFootprint& s = out.footprint;
  if (!out.ok()) {
    s.well_formed = false;
    s.is_request = true;
    s.method = sip::Method::kUnknown;
    return out;
  }
  s.is_request = msg.is_request;
  if (msg.is_request) {
    s.method = sip::method_from_name(msg.method_text);
  } else {
    s.status_code = msg.status_code;
  }
  if (auto text = msg.get("CSeq")) {
    if (auto cs = parse_cseq(*text)) {
      s.cseq = cs->number;
      s.cseq_method = sip::method_from_name(cs->method);
    }
  }
  s.call_id = std::string(str::trim(msg.get("Call-ID").value_or("")));
  if (auto text = msg.get("From")) {
    if (auto from = parse_name_addr(*text)) {
      s.from_aor = from->uri.address_of_record();
      s.from_tag = from->tag().value_or("");
    }
  }
  if (auto text = msg.get("To")) {
    if (auto to = parse_name_addr(*text)) {
      s.to_aor = to->uri.address_of_record();
      s.to_tag = to->tag().value_or("");
    }
  }
  s.well_formed = well_formed(msg);
  if (auto auth = msg.get("Authorization")) {
    s.has_auth = true;
    if (auto response = digest_response(*auth)) s.auth_response = *response;
  }
  s.has_challenge = msg.get("WWW-Authenticate").has_value();
  s.body_len = msg.body.size();
  s.sdp_media = sdp_audio(msg.body);
  if (auto text = msg.get("Contact")) {
    if (auto contact = parse_name_addr(*text)) {
      if (auto ip = pkt::Ipv4Address::parse(contact->uri.host))
        s.contact = pkt::Endpoint{*ip, contact->uri.port ? contact->uri.port : uint16_t{5060}};
    }
  }
  return out;
}

std::string describe(const core::SipFootprint& fp) {
  auto ep = [](const std::optional<pkt::Endpoint>& e) {
    return e ? e->to_string() : std::string("-");
  };
  return str::format(
      "req=%d method=%s status=%d cseq=%u/%s call_id='%s' from='%s';tag='%s' to='%s';tag='%s' "
      "wf=%d auth=%d resp='%s' challenge=%d sdp=%s contact=%s body=%zu",
      fp.is_request, std::string(sip::method_name(fp.method)).c_str(), fp.status_code, fp.cseq,
      std::string(sip::method_name(fp.cseq_method)).c_str(), fp.call_id.c_str(),
      fp.from_aor.c_str(), fp.from_tag.c_str(), fp.to_aor.c_str(), fp.to_tag.c_str(),
      fp.well_formed, fp.has_auth, fp.auth_response.c_str(), fp.has_challenge,
      ep(fp.sdp_media).c_str(), ep(fp.contact).c_str(), fp.body_len);
}

std::string disagreement(std::span<const uint8_t> payload) {
  payload = payload.first(std::min(payload.size(), kMaxUdpPayload));
  const std::string_view text(reinterpret_cast<const char*>(payload.data()), payload.size());
  const Decoded want = decode(text);

  core::Distiller distiller;
  const pkt::Endpoint a{pkt::Ipv4Address(10, 0, 0, 1), 5060};
  const pkt::Endpoint b{pkt::Ipv4Address(10, 0, 0, 2), 5060};
  auto fp = distiller.distill(pkt::make_udp_packet(a, b, Bytes(payload.begin(), payload.end())));
  if (!fp || fp->sip() == nullptr) return "distiller produced no SIP footprint";

  const core::ParseErrorStats& errors = distiller.stats().parse_errors;
  const uint64_t want_errors = want.ok() ? 0 : 1;
  if (errors.total != want_errors ||
      (!want.ok() && errors.count(core::ParseProto::kSip, want.error) != 1)) {
    return str::format("parse errors differ: reference %s, distiller total %llu",
                       want.ok() ? "accepts" : errc_name(want.error),
                       static_cast<unsigned long long>(errors.total));
  }
  if (!(*fp->sip() == want.footprint)) {
    return "footprints differ:\n  reference " + describe(want.footprint) + "\n  distiller " +
           describe(*fp->sip());
  }
  return "";
}

}  // namespace scidive::sip_reference
