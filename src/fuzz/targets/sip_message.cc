// libFuzzer driver for fuzz_sip_message (built only with SCIDIVE_FUZZ=ON + Clang).
// Beyond the target's no-crash contract, every input must distill to the
// footprint the reference object-model decoder builds (same accept/reject
// outcome and parse-error reason); any disagreement traps.
#include "fuzz/fuzz_targets.h"
#include "scidive/sip_reference_decode.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  scidive::fuzz::fuzz_sip_message(data, size);
  if (!scidive::sip_reference::disagreement({data, size}).empty()) __builtin_trap();
  return 0;
}
