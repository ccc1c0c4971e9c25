// Shared lexical layer of the SIP stack. Every SIP grammar — URI, name-addr,
// Via, CSeq, digest parameters, SDP and the message framing itself — exists
// once, as a scanner that returns string_view slices of its input. The owning
// types the UA, proxy and attack tools build (SipUri, NameAddr, Via, CSeq,
// DigestCredentials, Sdp, SipMessage) are thin copies of those slices, and
// the IDS reads the slices directly (see MessageView, message_view.h).
#pragma once

#include <string_view>

#include "common/result.h"
#include "common/strings.h"

namespace scidive::sip {

/// Outcome of a view scan. The reason is a static string, so rejecting
/// hostile input allocates nothing; error() builds the owning Error the
/// Result-returning parsers hand out.
struct ParseStatus {
  Errc code = Errc::kOk;
  const char* what = "";

  bool ok() const { return code == Errc::kOk; }
  Error error() const { return Error{code, what}; }
};

inline ParseStatus parse_fail(Errc code, const char* what) { return ParseStatus{code, what}; }

/// `;`-separated parameter list (URI, name-addr and Via params). Each field
/// is trimmed and empty fields are skipped; `k=v` splits at the first '=',
/// a bare `k` yields an empty value. With `trim_key_value` the key and value
/// are trimmed as well (header params of a name-addr; URI and Via params
/// keep the bytes around '='). Duplicate keys are all yielded, in order, so
/// a consumer that keeps the last occurrence sees "last one wins".
class ParamCursor {
 public:
  ParamCursor(std::string_view list, bool trim_key_value)
      : fields_(list, ';'), trim_key_value_(trim_key_value) {}

  bool next(std::string_view& key, std::string_view& value) {
    for (std::string_view p; fields_.next(p);) {
      p = str::trim(p);
      if (p.empty()) continue;
      const size_t eq = str::find_byte(p, '=');
      if (eq == std::string_view::npos) {
        key = p;
        value = {};
      } else {
        key = p.substr(0, eq);
        value = p.substr(eq + 1);
        if (trim_key_value_) {
          key = str::trim(key);
          value = str::trim(value);
        }
      }
      return true;
    }
    return false;
  }

 private:
  str::SplitCursor fields_;
  bool trim_key_value_;
};

}  // namespace scidive::sip
