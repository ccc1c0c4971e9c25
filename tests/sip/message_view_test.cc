// The single-pass SIP scanner and its view extractors: the edge cases the
// owning object parser used to handle implicitly, pinned on the views.
#include "sip/message_view.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sip/auth.h"
#include "sip/message.h"
#include "sip/sdp.h"

namespace scidive::sip {
namespace {

constexpr std::string_view kRegister =
    "REGISTER sip:lab.net SIP/2.0\r\n"
    "Via: SIP/2.0/UDP 10.0.0.7:5060;branch=z9hG4bK-r1\r\n"
    "From: <sip:alice@lab.net>;tag=r1\r\n"
    "To: <sip:alice@lab.net>\r\n"
    "Call-ID: reg-1\r\n"
    "CSeq: 2 REGISTER\r\n"
    "Contact: <sip:alice@10.0.0.7:5062>\r\n"
    "Authorization: Digest username=\"alice\", realm=\"lab.net\", nonce=\"n1\", "
    "uri=\"sip:lab.net\", response=\"0123456789abcdef0123456789abcdef\"\r\n"
    "Content-Length: 0\r\n"
    "\r\n";

TEST(MessageView, ScansRegisterWithoutCopying) {
  MessageView v;
  ASSERT_TRUE(v.parse(kRegister).ok());
  EXPECT_TRUE(v.is_request());
  EXPECT_EQ(v.method(), Method::kRegister);
  EXPECT_EQ(v.request_uri().host, "lab.net");
  EXPECT_EQ(v.header(HeaderId::kCallId), "reg-1");
  ASSERT_TRUE(v.cseq());
  EXPECT_EQ(v.cseq()->number, 2u);
  EXPECT_EQ(v.cseq()->method, "REGISTER");
  EXPECT_EQ(v.from()->uri.address_of_record(), "alice@lab.net");
  EXPECT_EQ(v.from()->tag(), "r1");
  EXPECT_FALSE(v.to()->tag().has_value());
  EXPECT_EQ(v.digest_response(), "0123456789abcdef0123456789abcdef");
  EXPECT_FALSE(v.has(HeaderId::kWwwAuthenticate));
  EXPECT_EQ(v.contact_endpoint(), (pkt::Endpoint{pkt::Ipv4Address(10, 0, 0, 7), 5062}));
  EXPECT_TRUE(v.well_formed());
  EXPECT_TRUE(v.body().empty());
  // Every slice points into the scanned text.
  const std::string_view call_id = *v.header(HeaderId::kCallId);
  EXPECT_GE(call_id.data(), kRegister.data());
  EXPECT_LE(call_id.data() + call_id.size(), kRegister.data() + kRegister.size());
}

TEST(MessageView, CompactAndMixedCaseHeaderNames) {
  const std::string text =
      "BYE sip:bob@lab.net SIP/2.0\r\n"
      "v: SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK1\r\n"
      "F: <sip:alice@lab.net>;tag=a\r\n"
      "t: <sip:bob@lab.net>;tag=b\r\n"
      "I: compact-call\r\n"
      "cSeQ: 7 BYE\r\n"
      "M: <sip:alice@10.0.0.1>\r\n"
      "L: 0\r\n"
      "\r\n";
  MessageView v;
  ASSERT_TRUE(v.parse(text).ok());
  EXPECT_EQ(v.header(HeaderId::kCallId), "compact-call");
  EXPECT_EQ(v.from()->tag(), "a");
  EXPECT_EQ(v.to()->tag(), "b");
  EXPECT_EQ(v.cseq()->number, 7u);
  EXPECT_EQ(v.contact_endpoint(), (pkt::Endpoint{pkt::Ipv4Address(10, 0, 0, 1), 5060}));
  EXPECT_TRUE(v.top_via_valid());
  EXPECT_TRUE(v.well_formed());
  EXPECT_EQ(header_id("WWW-AUTHENTICATE"), HeaderId::kWwwAuthenticate);
  EXPECT_EQ(header_id("x"), HeaderId::kOther);
  EXPECT_EQ(canonical_header_name("l"), "Content-Length");
  EXPECT_EQ(canonical_header_name("X-Custom"), "X-Custom");
}

TEST(MessageView, FirstOccurrenceIsIndexed) {
  const std::string text =
      "OPTIONS sip:x@y SIP/2.0\r\n"
      "Call-ID: first\r\n"
      "i: second\r\n"
      "\r\n";
  MessageView v;
  ASSERT_TRUE(v.parse(text).ok());
  EXPECT_EQ(v.header(HeaderId::kCallId), "first");
}

TEST(MessageView, FoldedLinesJoinAndSurviveLaterFolds) {
  const std::string text =
      "INVITE sip:bob@lab.net SIP/2.0\r\n"
      "From: <sip:alice@lab.net>\r\n"
      "\t;tag=folded\r\n"
      "Subject: a\r\n"
      " b\r\n"
      "  c\r\n"
      "To: <sip:bob@lab.net>\r\n"
      "Call-ID:\r\n"
      " split-call-id\r\n"
      "\r\n";
  struct Seen final : HeaderVisitor {
    std::vector<std::pair<std::string, std::string>> fields;
    void on_header(std::string_view n, std::string_view v) override {
      fields.emplace_back(n, v);
    }
  } seen;
  MessageView v;
  ASSERT_TRUE(v.parse(text, &seen).ok());
  EXPECT_EQ(v.from()->tag(), "folded");
  EXPECT_EQ(v.header(HeaderId::kCallId), "split-call-id");
  ASSERT_EQ(seen.fields.size(), 4u);
  EXPECT_EQ(seen.fields[1], (std::pair<std::string, std::string>{"Subject", "a b  c"}));
}

TEST(MessageView, DuplicateTagLastOneWins) {
  NameAddrView na;
  ASSERT_TRUE(NameAddrView::parse("<sip:a@b>;tag=1;x;tag = 2", na).ok());
  EXPECT_EQ(na.tag(), "2");
  ASSERT_TRUE(NameAddrView::parse("<sip:a@b>;tag=1;tag", na).ok());
  EXPECT_EQ(na.tag(), "");
  // The owning parser keeps the same answer.
  EXPECT_EQ(NameAddr::parse("<sip:a@b>;tag=1;tag=2").value().tag(), "2");
}

TEST(MessageView, AddrSpecWithoutAngles) {
  NameAddrView na;
  ASSERT_TRUE(NameAddrView::parse("sip:alice@lab.net:5070;tag=9;transport=udp", na).ok());
  EXPECT_EQ(na.uri.address_of_record(), "alice@lab.net");
  EXPECT_EQ(na.uri.port, 5070);
  EXPECT_EQ(na.tag(), "9");
  EXPECT_TRUE(na.uri.params.empty());  // bare addr-spec params belong to the header
  ASSERT_TRUE(NameAddrView::parse("sip:lab.net", na).ok());
  EXPECT_EQ(na.uri.address_of_record(), "lab.net");
}

TEST(MessageView, ContentLengthGovernsOrLies) {
  MessageView v;
  ASSERT_TRUE(v.parse("MESSAGE sip:a@b SIP/2.0\r\nl: 5\r\n\r\nhellothere").ok());
  EXPECT_EQ(v.body(), "hello");
  ASSERT_TRUE(v.parse("MESSAGE sip:a@b SIP/2.0\r\n\r\nno length, all of it").ok());
  EXPECT_EQ(v.body(), "no length, all of it");
  EXPECT_EQ(v.parse("MESSAGE sip:a@b SIP/2.0\r\nContent-Length: 50\r\n\r\nshort").code,
            Errc::kTruncated);
  EXPECT_EQ(v.parse("MESSAGE sip:a@b SIP/2.0\r\nContent-Length: -1\r\n\r\n").code,
            Errc::kMalformed);
  EXPECT_EQ(v.parse("MESSAGE sip:a@b SIP/2.0\r\nContent-Length: 18446744073709551616\r\n\r\n")
                .code,
            Errc::kMalformed);
}

TEST(MessageView, RejectsLikeTheObjectParser) {
  MessageView v;
  EXPECT_EQ(v.parse("").code, Errc::kMalformed);
  EXPECT_EQ(v.parse("INVITE sip:a@b SIP/3.0\r\n\r\n").code, Errc::kUnsupported);
  EXPECT_EQ(v.parse("INVITE  sip:a@b SIP/2.0\r\n\r\n").code, Errc::kMalformed);
  EXPECT_EQ(v.parse("INVITE tel:+1555 SIP/2.0\r\n\r\n").code, Errc::kMalformed);
  EXPECT_EQ(v.parse("INVITE sip:a@b:0 SIP/2.0\r\n\r\n").code, Errc::kMalformed);
  EXPECT_EQ(v.parse("SIP/2.0 99 Low\r\n\r\n").code, Errc::kMalformed);
  EXPECT_EQ(v.parse("INVITE sip:a@b SIP/2.0\r\nNoColon\r\n\r\n").code, Errc::kMalformed);
  EXPECT_EQ(v.parse("INVITE sip:a@b SIP/2.0\r\n:x\r\n\r\n").code, Errc::kMalformed);
  EXPECT_EQ(v.parse("INVITE sip:a@b SIP/2.0\r\nCall-ID: x\r\n").code, Errc::kTruncated);
  // The owning parser is this scanner: same verdicts, same codes.
  EXPECT_EQ(SipMessage::parse(std::string_view("INVITE sip:a@b SIP/3.0\r\n\r\n")).error().code,
            Errc::kUnsupported);
}

TEST(MessageView, ViaAndCSeqExtractors) {
  ViaView via;
  ASSERT_TRUE(ViaView::parse(top_via_value("SIP/2.0/UDP h:5066;branch=z9, SIP/2.0/UDP x"), via)
                  .ok());
  EXPECT_EQ(via.host, "h");
  EXPECT_EQ(via.port, 5066);
  EXPECT_FALSE(ViaView::parse("SIP/2.0/UDP", via).ok());
  EXPECT_FALSE(ViaView::parse("SIP/2.0/UDP h:port", via).ok());
  CSeqView cs;
  ASSERT_TRUE(CSeqView::parse(" 42  INVITE ", cs).ok());
  EXPECT_EQ(cs.number, 42u);
  EXPECT_EQ(cs.method, "INVITE");
  EXPECT_FALSE(CSeqView::parse("x INVITE", cs).ok());
}

TEST(MessageView, SdpAudioEndpoint) {
  const std::string sdp =
      "v=0\r\no=- 1 1 IN IP4 10.0.0.1\r\ns=-\r\nc=IN IP4 10.0.0.9\r\nt=0 0\r\n"
      "m=video 4000 RTP/AVP 31\r\nm=audio 16384 RTP/AVP 0 8\r\nm=audio 2 RTP/AVP 0\r\n";
  EXPECT_EQ(sdp_audio_endpoint(sdp), (pkt::Endpoint{pkt::Ipv4Address(10, 0, 0, 9), 16384}));
  // Any invalid line voids the whole body, as Sdp::parse does.
  EXPECT_FALSE(sdp_audio_endpoint(sdp + "m=audio 5 RTP/AVP 300\r\n"));
  EXPECT_FALSE(sdp_audio_endpoint("c=IN IP4 10.0.0.9\r\nm=audio 5 RTP/AVP 0\r\n"));  // no v=
  EXPECT_FALSE(sdp_audio_endpoint("v=0\r\nc=IN IP4 host.lab\r\nm=audio 5 RTP/AVP 0\r\n"));
  EXPECT_FALSE(sdp_audio_endpoint(""));
}

TEST(MessageView, DigestCredentialsView) {
  DigestCredentialsView creds;
  EXPECT_TRUE(DigestCredentialsView::parse(
                  "Digest USERNAME=\"a\",realm=r,nonce=n,uri=u,response=1,Response=\"2\"", creds)
                  .ok());
  EXPECT_EQ(creds.response, "2");  // keys are case-insensitive, the last wins
  EXPECT_EQ(DigestCredentialsView::parse("Basic abc", creds).code, Errc::kUnsupported);
  EXPECT_EQ(DigestCredentialsView::parse("Digest username=a, realm", creds).code,
            Errc::kMalformed);
  EXPECT_EQ(DigestCredentialsView::parse("Digest username=a", creds).code, Errc::kMalformed);
}

}  // namespace
}  // namespace scidive::sip
