// Minimal SDP (RFC 2327 subset): exactly what a 2004 softphone offers —
// origin, session name, one connection line, one audio media line. The IDS
// uses SDP to learn where a call's RTP is supposed to flow (cross-protocol
// session correlation).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "pkt/addr.h"
#include "sip/scan.h"

namespace scidive::sip {

/// One validated SDP line as slices of the body. Only the fields of its
/// `type` are meaningful (the scanner reuses one SdpLine): o= (origin_*,
/// session_*), s= (value), c= (addr), m= (media_*, port, formats — the
/// checked payload-type list, empty when the line has none).
struct SdpLine {
  char type = 0;
  std::string_view value;
  std::string_view origin_user;
  uint64_t session_id = 0;
  uint64_t session_version = 0;
  std::string_view origin_addr;
  std::string_view addr;
  std::string_view media_type;
  uint16_t port = 0;
  std::string_view proto;
  std::string_view formats;
};

/// The SDP grammar: walks a body line by line (LF-separated, trimmed, blank
/// lines skipped), validating v=/o=/c=/m= and passing other types through.
class SdpScanner {
 public:
  explicit SdpScanner(std::string_view text) : lines_(text, '\n') {}

  /// False at the end of the body or on error; status() tells which (a
  /// body without v=0 fails at the end).
  bool next(SdpLine& line);
  ParseStatus status() const { return status_; }

  /// The m= payload-type list grammar (space-separated integers <= 127):
  /// calls `fn(pt)` per type, stops and returns false at the first bad one.
  template <typename Fn>
  static bool for_each_payload_type(std::string_view formats, Fn&& fn) {
    str::SplitCursor pts(formats, ' ');
    for (std::string_view pt; pts.next(pt);) {
      auto v = str::parse_u32(pt);
      if (!v || *v > 127) return false;
      fn(static_cast<uint8_t>(*v));
    }
    return true;
  }

 private:
  str::SplitCursor lines_;
  bool saw_version_ = false;
  ParseStatus status_;
};

/// Where a body says the first audio stream's RTP goes: the last c= address
/// with the first m=audio port — when the whole body is valid SDP, has an
/// audio line and the address is an IPv4 literal.
std::optional<pkt::Endpoint> sdp_audio_endpoint(std::string_view body);

struct SdpMedia {
  std::string type = "audio";      // m= media type
  uint16_t port = 0;               // RTP port
  std::string proto = "RTP/AVP";   // transport
  std::vector<uint8_t> payload_types;  // e.g. {0} == PCMU
};

struct Sdp {
  std::string origin_user = "-";
  uint64_t session_id = 0;
  uint64_t session_version = 0;
  std::string origin_addr;      // o= address
  std::string session_name = "-";
  std::string connection_addr;  // c= address: where to send media
  std::vector<SdpMedia> media;

  static Result<Sdp> parse(std::string_view text);
  std::string to_string() const;

  /// First audio media entry, if any.
  const SdpMedia* audio() const {
    for (const auto& m : media) {
      if (m.type == "audio") return &m;
    }
    return nullptr;
  }
};

/// Convenience: one-audio-stream offer/answer body.
Sdp make_audio_sdp(std::string addr, uint16_t rtp_port, uint64_t session_id,
                   uint64_t version = 1);

}  // namespace scidive::sip
