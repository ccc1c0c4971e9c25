#include "sip/sdp.h"

#include "common/strings.h"

namespace scidive::sip {

namespace {

/// Splits `value` on single spaces exactly as split() would: stores the
/// first `n` fields, sets `rest` to the text after the n-th field's
/// separator, and returns the total field count.
size_t fields(std::string_view value, std::string_view* out, size_t n, std::string_view* rest) {
  str::SplitCursor cursor(value, ' ');
  size_t count = 0;
  for (std::string_view f; cursor.next(f); ++count) {
    if (count < n) out[count] = f;
    if (count + 1 == n && rest != nullptr) *rest = cursor.rest();
  }
  return count;
}

}  // namespace

bool SdpScanner::next(SdpLine& out) {
  if (!status_.ok()) return false;
  for (std::string_view raw; lines_.next(raw);) {
    std::string_view line = str::trim(raw);
    if (line.empty()) continue;
    if (line.size() < 2 || line[1] != '=') {
      status_ = parse_fail(Errc::kMalformed, "SDP line without '='");
      return false;
    }
    out.type = line[0];
    out.value = line.substr(2);
    std::string_view f[6];
    switch (out.type) {
      case 'v':
        if (str::trim(out.value) != "0") {
          status_ = parse_fail(Errc::kUnsupported, "SDP version != 0");
          return false;
        }
        saw_version_ = true;
        break;
      case 'o': {
        // o=<user> <sess-id> <sess-version> IN IP4 <addr>
        if (fields(out.value, f, 6, nullptr) < 6) {
          status_ = parse_fail(Errc::kMalformed, "short o= line");
          return false;
        }
        auto sid = str::parse_u64(f[1]);
        auto sver = str::parse_u64(f[2]);
        if (!sid || !sver) {
          status_ = parse_fail(Errc::kMalformed, "bad o= ids");
          return false;
        }
        out.origin_user = f[0];
        out.session_id = *sid;
        out.session_version = *sver;
        out.origin_addr = f[5];
        break;
      }
      case 'c':
        // c=IN IP4 <addr>
        if (fields(out.value, f, 3, nullptr) != 3 || f[0] != "IN" || f[1] != "IP4") {
          status_ = parse_fail(Errc::kMalformed, "unsupported c= line");
          return false;
        }
        out.addr = f[2];
        break;
      case 'm': {
        // m=audio <port> RTP/AVP <pt...>
        std::string_view formats;
        const size_t n = fields(out.value, f, 3, &formats);
        if (n < 3) {
          status_ = parse_fail(Errc::kMalformed, "short m= line");
          return false;
        }
        auto port = str::parse_u16(f[1]);
        if (!port) {
          status_ = parse_fail(Errc::kMalformed, "bad m= port");
          return false;
        }
        if (n > 3) {
          if (!for_each_payload_type(formats, [](uint8_t) {})) {
            status_ = parse_fail(Errc::kMalformed, "bad payload type");
            return false;
          }
        }
        out.formats = n > 3 ? formats : std::string_view();
        out.media_type = f[0];
        out.port = *port;
        out.proto = f[2];
        break;
      }
      default:
        break;  // a=, t=, b= etc.: tolerated, ignored
    }
    return true;
  }
  if (!saw_version_) status_ = parse_fail(Errc::kMalformed, "missing v=0");
  return false;
}

Result<Sdp> Sdp::parse(std::string_view text) {
  Sdp sdp;
  SdpScanner scanner(text);
  for (SdpLine line; scanner.next(line);) {
    switch (line.type) {
      case 'o':
        sdp.origin_user = std::string(line.origin_user);
        sdp.session_id = line.session_id;
        sdp.session_version = line.session_version;
        sdp.origin_addr = std::string(line.origin_addr);
        break;
      case 's': sdp.session_name = std::string(line.value); break;
      case 'c': sdp.connection_addr = std::string(line.addr); break;
      case 'm': {
        SdpMedia m;
        m.type = std::string(line.media_type);
        m.port = line.port;
        m.proto = std::string(line.proto);
        SdpScanner::for_each_payload_type(line.formats,
                                          [&](uint8_t pt) { m.payload_types.push_back(pt); });
        sdp.media.push_back(std::move(m));
        break;
      }
      default: break;
    }
  }
  if (!scanner.status().ok()) return scanner.status().error();
  return sdp;
}

std::optional<pkt::Endpoint> sdp_audio_endpoint(std::string_view body) {
  std::string_view addr;
  std::optional<uint16_t> audio_port;
  SdpScanner scanner(body);
  for (SdpLine line; scanner.next(line);) {
    if (line.type == 'c') addr = line.addr;
    if (line.type == 'm' && !audio_port && line.media_type == "audio") audio_port = line.port;
  }
  if (!scanner.status().ok() || !audio_port) return std::nullopt;
  auto ip = pkt::Ipv4Address::parse(addr);
  if (!ip) return std::nullopt;
  return pkt::Endpoint{*ip, *audio_port};
}

std::string Sdp::to_string() const {
  std::string out;
  out += "v=0\r\n";
  out += str::format("o=%s %llu %llu IN IP4 %s\r\n", origin_user.c_str(),
                     static_cast<unsigned long long>(session_id),
                     static_cast<unsigned long long>(session_version), origin_addr.c_str());
  out += "s=" + session_name + "\r\n";
  if (!connection_addr.empty()) out += "c=IN IP4 " + connection_addr + "\r\n";
  out += "t=0 0\r\n";
  for (const auto& m : media) {
    out += str::format("m=%s %u %s", m.type.c_str(), m.port, m.proto.c_str());
    for (uint8_t pt : m.payload_types) out += str::format(" %u", pt);
    out += "\r\n";
  }
  return out;
}

Sdp make_audio_sdp(std::string addr, uint16_t rtp_port, uint64_t session_id, uint64_t version) {
  Sdp sdp;
  sdp.session_id = session_id;
  sdp.session_version = version;
  sdp.origin_addr = addr;
  sdp.connection_addr = std::move(addr);
  SdpMedia m;
  m.port = rtp_port;
  m.payload_types = {0};  // PCMU
  sdp.media.push_back(std::move(m));
  return sdp;
}

}  // namespace scidive::sip
