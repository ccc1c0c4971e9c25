#include "scidive/distiller.h"

#include "common/strings.h"
#include "h323/q931.h"
#include "h323/ras.h"
#include "rtp/rtcp.h"
#include "rtp/rtp.h"
#include "voip/accounting.h"

namespace scidive::core {

std::string_view protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kSip: return "sip";
    case Protocol::kRtp: return "rtp";
    case Protocol::kRtcp: return "rtcp";
    case Protocol::kAcc: return "acc";
    case Protocol::kH225: return "h225";
    case Protocol::kRas: return "ras";
    case Protocol::kUnknown: return "unknown";
  }
  return "?";
}

std::string_view parse_proto_name(ParseProto p) {
  switch (p) {
    case ParseProto::kIpv4: return "ipv4";
    case ParseProto::kUdp: return "udp";
    case ParseProto::kSip: return "sip";
    case ParseProto::kRtp: return "rtp";
    case ParseProto::kRtcp: return "rtcp";
    case ParseProto::kAcc: return "acc";
    case ParseProto::kH225: return "h225";
    case ParseProto::kRas: return "ras";
  }
  return "?";
}

Distiller::Distiller(DistillerConfig config)
    : config_(std::move(config)),
      sip_ports_(config_.sip_ports),
      reassembler_(pkt::Ipv4Reassembler::Config{.timeout = config_.reassembly_timeout}) {}

std::optional<Footprint> Distiller::distill(const pkt::Packet& packet) {
  ++stats_.packets_in;

  // Non-fragments (the overwhelming common case) parse straight out of the
  // capture buffer; only fragments pay the reassembler's datagram copy.
  auto ip = pkt::parse_ipv4(packet.data);
  if (!ip) {
    ++stats_.undecodable;
    stats_.parse_errors.record(ParseProto::kIpv4, ip.error().code);
    return std::nullopt;
  }
  std::span<const uint8_t> datagram = packet.data;
  Bytes reassembled;
  if (ip.value().header.is_fragment()) {
    auto whole = reassembler_.push(packet.data, packet.timestamp);
    if (!whole) {
      if (whole.error().code == Errc::kState) {
        ++stats_.fragments_held;
      } else {
        ++stats_.undecodable;
        stats_.parse_errors.record(ParseProto::kIpv4, whole.error().code);
      }
      return std::nullopt;
    }
    reassembled = std::move(whole.value());
    datagram = reassembled;
    ++stats_.datagrams_reassembled;
  }
  auto udp = ip.value().header.is_fragment() ? pkt::parse_udp_packet(datagram)
                                             : pkt::parse_udp_packet(ip.value());
  if (!udp) {
    ++stats_.undecodable;
    stats_.parse_errors.record(ParseProto::kUdp, udp.error().code);
    return std::nullopt;
  }
  Footprint fp = decode(udp.value(), packet.timestamp, packet.data.size());
  ++stats_.footprints_out;
  switch (fp.protocol) {
    case Protocol::kSip: ++stats_.sip_footprints; break;
    case Protocol::kRtp: ++stats_.rtp_footprints; break;
    case Protocol::kRtcp: ++stats_.rtcp_footprints; break;
    case Protocol::kAcc: ++stats_.acc_footprints; break;
    case Protocol::kH225: ++stats_.h225_footprints; break;
    case Protocol::kRas: ++stats_.ras_footprints; break;
    case Protocol::kUnknown: ++stats_.unknown_footprints; break;
  }
  return fp;
}

std::optional<RtpPeek> Distiller::peek_rtp(const pkt::Packet& packet) const {
  auto ip = pkt::parse_ipv4(packet.data);
  if (!ip || ip.value().header.is_fragment()) return std::nullopt;
  auto udp = pkt::parse_udp_packet(packet.data);
  if (!udp) return std::nullopt;
  const pkt::UdpPacketView& u = udp.value();
  // Any port decode() would classify before the final RTP attempt makes the
  // packet ambiguous; odd ports additionally trigger the speculative RTCP
  // parse. All of those must take the full path.
  if (sip_ports_.contains(u.dst_port) || sip_ports_.contains(u.src_port)) {
    return std::nullopt;
  }
  if (u.dst_port == config_.acc_port || u.src_port == config_.acc_port) return std::nullopt;
  if (u.dst_port == h323::kH225Port || u.src_port == h323::kH225Port) return std::nullopt;
  if (u.dst_port == h323::kRasPort || u.src_port == h323::kRasPort) return std::nullopt;
  if (u.dst_port % 2 == 1 || u.src_port % 2 == 1) return std::nullopt;
  auto rtp = rtp::parse_rtp(u.payload);
  if (!rtp.ok()) return std::nullopt;
  return RtpPeek{u.source(),
                 u.destination(),
                 rtp.value().header.ssrc,
                 rtp.value().header.sequence,
                 rtp.value().header.timestamp,
                 packet.timestamp};
}

void Distiller::decode_sip(const sip::MessageView& msg, SipFootprint& s) {
  // Each header is parsed once, in place; only the footprint's own fields
  // are copied out (trails outlive the datagram).
  s.is_request = msg.is_request();
  if (msg.is_request()) {
    s.method = msg.method();
  } else {
    s.status_code = msg.status_code();
  }
  const std::optional<sip::CSeqView> cs = msg.cseq();
  if (cs) {
    s.cseq = cs->number;
    s.cseq_method = sip::method_from_name(cs->method);
  }
  const auto call_id = msg.header(sip::HeaderId::kCallId);
  if (call_id) s.call_id.assign(*call_id);
  const std::optional<sip::NameAddrView> from = msg.from();
  if (from) {
    s.from_aor.assign(from->uri.address_of_record());
    s.from_tag.assign(from->tag().value_or(std::string_view()));
  }
  const std::optional<sip::NameAddrView> to = msg.to();
  if (to) {
    s.to_aor.assign(to->uri.address_of_record());
    s.to_tag.assign(to->tag().value_or(std::string_view()));
  }
  s.well_formed = sip::mandatory_headers_valid(msg.request_method(), call_id.has_value(), cs,
                                               from.has_value(), to.has_value(),
                                               msg.top_via_valid());
  if (msg.has(sip::HeaderId::kAuthorization)) {
    s.has_auth = true;
    if (auto response = msg.digest_response()) s.auth_response.assign(*response);
  }
  s.has_challenge = msg.has(sip::HeaderId::kWwwAuthenticate);
  s.body_len = msg.body().size();
  s.sdp_media = msg.sdp_media();
  s.contact = msg.contact_endpoint();
}

Footprint Distiller::decode(const pkt::UdpPacketView& udp, SimTime time, size_t wire_len) {
  Footprint fp;
  fp.time = time;
  fp.src = udp.source();
  fp.dst = udp.destination();
  fp.wire_len = wire_len;

  bool sip_port =
      sip_ports_.contains(udp.dst_port) || sip_ports_.contains(udp.src_port);
  bool acc_port = udp.dst_port == config_.acc_port || udp.src_port == config_.acc_port;

  if (acc_port) {
    std::string_view text(reinterpret_cast<const char*>(udp.payload.data()),
                          udp.payload.size());
    auto record = voip::AccRecord::parse(text);
    if (record.ok()) {
      fp.protocol = Protocol::kAcc;
      fp.data = AccFootprint{record.value().kind == voip::AccRecord::Kind::kStart,
                             record.value().call_id, record.value().from_aor,
                             record.value().to_aor};
      return fp;
    }
    // "OK n" acknowledgements and garbage on the ACC port fall through to
    // an unknown footprint in the ACC column.
    stats_.parse_errors.record(ParseProto::kAcc, record.error().code);
    fp.protocol = Protocol::kAcc;
    fp.data = UnknownFootprint{"unparsed acc datagram"};
    return fp;
  }

  if (sip_port) {
    sip::MessageView msg;
    const sip::ParseStatus parsed = msg.parse(
        std::string_view(reinterpret_cast<const char*>(udp.payload.data()), udp.payload.size()));
    fp.protocol = Protocol::kSip;
    Box<SipFootprint> s(SipFootprint{});
    if (parsed.ok()) {
      decode_sip(msg, *s);
    } else {
      // A SIP-port packet that does not parse is itself a signal (malformed
      // SIP is event material for the billing-fraud rule); it keeps the
      // default footprint: a request of unknown method, not well formed.
      stats_.parse_errors.record(ParseProto::kSip, parsed.code);
    }
    fp.data = std::move(s);
    return fp;
  }

  // H.323 planes: call signaling on 1720, RAS on 1719 (content-verified).
  if (udp.dst_port == h323::kH225Port || udp.src_port == h323::kH225Port) {
    auto q931 = h323::Q931Message::parse(udp.payload);
    if (q931.ok()) {
      const auto& m = q931.value();
      fp.protocol = Protocol::kH225;
      H225Footprint h;
      h.message_type = static_cast<uint8_t>(m.type);
      h.message_name = std::string(h323::q931_message_name(m.type));
      h.call_id = m.call_id;
      h.calling_alias = m.calling_alias;
      h.called_alias = m.called_alias;
      h.media = m.media;
      h.is_setup = m.type == h323::Q931MessageType::kSetup;
      h.is_connect = m.type == h323::Q931MessageType::kConnect;
      h.is_release = m.type == h323::Q931MessageType::kReleaseComplete;
      fp.data = std::move(h);
      return fp;
    }
    stats_.parse_errors.record(ParseProto::kH225, q931.error().code);
    fp.protocol = Protocol::kH225;
    fp.data = UnknownFootprint{"unparsed h225 datagram"};
    return fp;
  }
  if (udp.dst_port == h323::kRasPort || udp.src_port == h323::kRasPort) {
    auto ras = h323::RasMessage::parse(udp.payload);
    if (ras.ok()) {
      const auto& m = ras.value();
      fp.protocol = Protocol::kRas;
      RasFootprint r;
      r.type = static_cast<uint8_t>(m.type);
      r.type_name = std::string(h323::ras_type_name(m.type));
      r.alias = m.alias;
      r.dest_alias = m.dest_alias;
      r.call_id = m.call_id;
      r.signal_address = m.signal_address;
      fp.data = std::move(r);
      return fp;
    }
    stats_.parse_errors.record(ParseProto::kRas, ras.error().code);
    fp.protocol = Protocol::kRas;
    fp.data = UnknownFootprint{"unparsed ras datagram"};
    return fp;
  }

  // Media ports: RTCP is conventionally the odd port (rtp_port + 1).
  if (udp.dst_port % 2 == 1 || udp.src_port % 2 == 1) {
    auto rtcp = rtp::parse_rtcp(udp.payload);
    if (rtcp.ok()) {
      fp.protocol = Protocol::kRtcp;
      RtcpFootprint r;
      if (rtcp.value().bye) {
        r.is_bye = true;
        if (!rtcp.value().bye->ssrcs.empty()) r.ssrc = rtcp.value().bye->ssrcs[0];
      } else if (rtcp.value().sr) {
        r.is_sender_report = true;
        r.ssrc = rtcp.value().sr->ssrc;
      } else if (rtcp.value().rr) {
        r.is_receiver_report = true;
        r.ssrc = rtcp.value().rr->ssrc;
      }
      fp.data = r;
      return fp;
    }
  }

  auto rtp = rtp::parse_rtp(udp.payload);
  if (rtp.ok()) {
    fp.protocol = Protocol::kRtp;
    fp.data = RtpFootprint{rtp.value().header.ssrc, rtp.value().header.sequence,
                           rtp.value().header.timestamp, rtp.value().header.payload_type,
                           rtp.value().payload.size()};
    return fp;
  }

  // Not RTP either: charge the failure to RTP (the final classification
  // attempt). An RTCP miss on an odd port is not counted separately — the
  // RTCP attempt is speculative and falls through here.
  stats_.parse_errors.record(ParseProto::kRtp, rtp.error().code);
  fp.protocol = Protocol::kUnknown;
  fp.data = UnknownFootprint{rtp.error().to_string()};
  return fp;
}

}  // namespace scidive::core
