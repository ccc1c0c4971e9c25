// Reference oracle for SIP distill: the object-model decoder the Distiller
// used before it switched to sip::MessageView — a full owning parse of the
// message (every header copied, every structured header parsed into its own
// object, the SDP body parsed whole), then field-by-field copies into a
// SipFootprint. Its grammar is a frozen copy of that parser, kept here only
// so the view scanner can be checked against it; nothing in the program
// calls it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/result.h"
#include "scidive/footprint.h"

namespace scidive::sip_reference {

/// The reference outcome for one SIP payload: the footprint it would have
/// distilled, or the parse error code it would have counted under
/// parse_errors{proto="sip",reason}.
struct Decoded {
  Errc error = Errc::kOk;
  core::SipFootprint footprint;

  bool ok() const { return error == Errc::kOk; }
};

Decoded decode(std::string_view payload);

/// The largest payload one IPv4 UDP datagram carries.
constexpr size_t kMaxUdpPayload = 65507;

/// Distills `payload` (cut to kMaxUdpPayload) as a UDP datagram between two
/// SIP ports with a fresh core::Distiller and compares the result with
/// decode(): the footprint field for field, and the parse-error accounting
/// (no error, or exactly one under the same reason). Returns "" on
/// agreement, otherwise a description of the first difference.
std::string disagreement(std::span<const uint8_t> payload);

/// The footprint as one line of text (for failure messages).
std::string describe(const core::SipFootprint& fp);

}  // namespace scidive::sip_reference
