// SIP distill edge cases at the footprint level: what the Distiller makes of
// compact and folded headers, duplicate tags, bare addr-specs, lying or
// absent Content-Length, CSeq/method mismatches, bad Vias, unknown methods
// and malformed request URIs. Each case is also checked against the
// reference object-model decoder.
#include <gtest/gtest.h>

#include "pkt/packet.h"
#include "scidive/distiller.h"
#include "scidive/sip_reference_decode.h"

namespace scidive::core {
namespace {

const pkt::Endpoint kA{pkt::Ipv4Address(10, 0, 0, 1), 5060};
const pkt::Endpoint kB{pkt::Ipv4Address(10, 0, 0, 2), 5060};

struct Distilled {
  SipFootprint sip;
  uint64_t parse_errors = 0;
};

Distilled distill(std::string_view text) {
  const std::span<const uint8_t> bytes(reinterpret_cast<const uint8_t*>(text.data()),
                                       text.size());
  EXPECT_EQ(sip_reference::disagreement(bytes), "") << text;
  Distiller distiller;
  auto fp = distiller.distill(pkt::make_udp_packet(kA, kB, Bytes(bytes.begin(), bytes.end())));
  EXPECT_TRUE(fp.has_value());
  EXPECT_EQ(fp->protocol, Protocol::kSip);
  return Distilled{*fp->sip(), distiller.stats().parse_errors.total};
}

std::string request(std::string_view start, std::string_view headers, std::string_view body = "") {
  return std::string(start) + "\r\n" + std::string(headers) + "\r\n" + std::string(body);
}

constexpr std::string_view kHeaders =
    "Via: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-e1\r\n"
    "From: \"Alice\" <sip:alice@lab.net>;tag=a1\r\n"
    "To: <sip:bob@lab.net>\r\n"
    "Call-ID: edge-1\r\n"
    "CSeq: 1 INVITE\r\n";

TEST(SipDistillEdge, CompactAndMixedCaseNames) {
  const Distilled d = distill(request("INVITE sip:bob@lab.net SIP/2.0",
                                      "V: SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK-c\r\n"
                                      "f: <sip:alice@lab.net>;tag=c1\r\n"
                                      "T: <sip:bob@lab.net>\r\n"
                                      "i: compact-1\r\n"
                                      "cseq: 3 INVITE\r\n"
                                      "m: <sip:alice@10.0.0.1:5070>\r\n"
                                      "AUTHORIZATION: Digest username=a, realm=r, nonce=n, "
                                      "uri=u, response=feed\r\n"));
  EXPECT_TRUE(d.sip.well_formed);
  EXPECT_EQ(d.sip.method, sip::Method::kInvite);
  EXPECT_EQ(d.sip.call_id, "compact-1");
  EXPECT_EQ(d.sip.from_aor, "alice@lab.net");
  EXPECT_EQ(d.sip.from_tag, "c1");
  EXPECT_EQ(d.sip.cseq, 3u);
  EXPECT_EQ(d.sip.contact, (pkt::Endpoint{pkt::Ipv4Address(10, 0, 0, 1), 5070}));
  EXPECT_TRUE(d.sip.has_auth);
  EXPECT_EQ(d.sip.auth_response, "feed");
}

TEST(SipDistillEdge, FoldedHeaderLines) {
  const Distilled d = distill(request("INVITE sip:bob@lab.net SIP/2.0",
                                      "Via: SIP/2.0/UDP 10.0.0.1\r\n"
                                      " ;branch=z9hG4bK-f\r\n"
                                      "From: <sip:alice@lab.net>\r\n"
                                      "\t;tag=folded\r\n"
                                      "To: <sip:bob@lab.net>\r\n"
                                      "Call-ID:\r\n"
                                      "  folded-call\r\n"
                                      "CSeq: 1\r\n"
                                      " INVITE\r\n"));
  EXPECT_TRUE(d.sip.well_formed);
  EXPECT_EQ(d.sip.call_id, "folded-call");
  EXPECT_EQ(d.sip.from_tag, "folded");
  EXPECT_EQ(d.sip.cseq_method, sip::Method::kInvite);
}

TEST(SipDistillEdge, DuplicateTagLastOneWins) {
  const Distilled d = distill(request("BYE sip:bob@lab.net SIP/2.0",
                                      "Via: SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK-d\r\n"
                                      "From: <sip:alice@lab.net>;tag=first;tag=second\r\n"
                                      "To: <sip:bob@lab.net>;tag=x;tag=y;tag=z\r\n"
                                      "Call-ID: dup\r\n"
                                      "CSeq: 2 BYE\r\n"));
  EXPECT_EQ(d.sip.from_tag, "second");
  EXPECT_EQ(d.sip.to_tag, "z");
}

TEST(SipDistillEdge, AddrSpecFromWithoutAngles) {
  const Distilled d = distill(request("MESSAGE sip:bob@lab.net SIP/2.0",
                                      "Via: SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK-m\r\n"
                                      "From: sip:alice@lab.net;tag=bare\r\n"
                                      "To: sip:bob@lab.net\r\n"
                                      "Call-ID: bare-1\r\n"
                                      "CSeq: 1 MESSAGE\r\n"));
  EXPECT_TRUE(d.sip.well_formed);
  EXPECT_EQ(d.sip.from_aor, "alice@lab.net");
  EXPECT_EQ(d.sip.from_tag, "bare");
  EXPECT_EQ(d.sip.to_aor, "bob@lab.net");
}

TEST(SipDistillEdge, ContentLengthLiesOrIsAbsent) {
  const std::string sdp = "v=0\r\nc=IN IP4 10.0.0.1\r\nm=audio 16384 RTP/AVP 0\r\n";
  // Absent: the body is everything after the blank line.
  Distilled d = distill(request("INVITE sip:bob@lab.net SIP/2.0", kHeaders, sdp));
  EXPECT_EQ(d.sip.body_len, sdp.size());
  EXPECT_EQ(d.sip.sdp_media, (pkt::Endpoint{pkt::Ipv4Address(10, 0, 0, 1), 16384}));
  // Shorter than the body: the body is cut, and the cut SDP has no m= line.
  d = distill(request("INVITE sip:bob@lab.net SIP/2.0",
                      std::string(kHeaders) + "Content-Length: 30\r\n", sdp));
  EXPECT_EQ(d.sip.body_len, 30u);
  EXPECT_FALSE(d.sip.sdp_media.has_value());
  // Longer than the body: the message is rejected and counted.
  d = distill(request("INVITE sip:bob@lab.net SIP/2.0",
                      std::string(kHeaders) + "Content-Length: 9999\r\n", sdp));
  EXPECT_FALSE(d.sip.well_formed);
  EXPECT_EQ(d.sip.method, sip::Method::kUnknown);
  EXPECT_EQ(d.parse_errors, 1u);
}

TEST(SipDistillEdge, CSeqMethodMismatchIsNotWellFormed) {
  const Distilled d = distill(request("INVITE sip:bob@lab.net SIP/2.0",
                                      "Via: SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK-x\r\n"
                                      "From: <sip:alice@lab.net>;tag=a\r\n"
                                      "To: <sip:bob@lab.net>\r\n"
                                      "Call-ID: mismatch\r\n"
                                      "CSeq: 1 BYE\r\n"));
  EXPECT_FALSE(d.sip.well_formed);
  EXPECT_EQ(d.sip.method, sip::Method::kInvite);
  EXPECT_EQ(d.sip.cseq_method, sip::Method::kBye);
  EXPECT_EQ(d.parse_errors, 0u);
}

TEST(SipDistillEdge, MissingOrBadViaIsNotWellFormed) {
  const std::string rest =
      "From: <sip:alice@lab.net>;tag=a\r\n"
      "To: <sip:bob@lab.net>\r\n"
      "Call-ID: via\r\n"
      "CSeq: 1 INVITE\r\n";
  EXPECT_FALSE(distill(request("INVITE sip:bob@lab.net SIP/2.0", rest)).sip.well_formed);
  EXPECT_FALSE(distill(request("INVITE sip:bob@lab.net SIP/2.0",
                               "Via: SIP/2.0/UDP host:notaport\r\n" + rest))
                   .sip.well_formed);
  EXPECT_FALSE(distill(request("INVITE sip:bob@lab.net SIP/2.0", "Via: SIP/1.0/UDP h\r\n" + rest))
                   .sip.well_formed);
  // Only the top via-parm of a comma-joined field counts.
  EXPECT_TRUE(distill(request("INVITE sip:bob@lab.net SIP/2.0",
                              "Via: SIP/2.0/UDP h1, garbage\r\n" + rest))
                  .sip.well_formed);
}

TEST(SipDistillEdge, UnknownMethods) {
  Distilled d = distill(request("PUBLISH sip:bob@lab.net SIP/2.0",
                                "Via: SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK-p\r\n"
                                "From: <sip:alice@lab.net>;tag=a\r\n"
                                "To: <sip:bob@lab.net>\r\n"
                                "Call-ID: pub\r\n"
                                "CSeq: 1 PUBLISH\r\n"));
  EXPECT_TRUE(d.sip.well_formed);
  EXPECT_EQ(d.sip.method, sip::Method::kUnknown);
  EXPECT_EQ(d.sip.cseq_method, sip::Method::kUnknown);
  // Two different unknown methods are still a mismatch, though both map to
  // kUnknown: well-formedness compares the method text.
  d = distill(request("PUBLISH sip:bob@lab.net SIP/2.0",
                      "Via: SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK-p\r\n"
                      "From: <sip:alice@lab.net>;tag=a\r\n"
                      "To: <sip:bob@lab.net>\r\n"
                      "Call-ID: pub\r\n"
                      "CSeq: 1 SUBSCRIBE\r\n"));
  EXPECT_FALSE(d.sip.well_formed);
  // Method tokens are case-sensitive.
  EXPECT_EQ(distill(request("invite sip:bob@lab.net SIP/2.0", kHeaders)).sip.method,
            sip::Method::kUnknown);
}

TEST(SipDistillEdge, MalformedRequestUriRejectsTheMessage) {
  for (std::string_view start : {"INVITE tel:+15551234 SIP/2.0", "INVITE sip:@lab.net SIP/2.0",
                                 "INVITE sip:bob@lab.net:0 SIP/2.0", "INVITE sip:bob@la$b SIP/2.0",
                                 "INVITE sip: SIP/2.0"}) {
    const Distilled d = distill(request(start, kHeaders));
    EXPECT_EQ(d.parse_errors, 1u) << start;
    EXPECT_FALSE(d.sip.well_formed) << start;
    EXPECT_TRUE(d.sip.call_id.empty()) << start;  // nothing is extracted
  }
}

}  // namespace
}  // namespace scidive::core
