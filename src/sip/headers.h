// SIP header field collection and the structured header types used by the
// stack and the IDS: name-addr (From/To/Contact), Via, CSeq. Each grammar is
// a view scanner (NameAddrView, ViaView, CSeqView); the owning structs copy
// what it sliced.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sip/uri.h"

namespace scidive::sip {

/// One "Name: value" field, order-preserving in the message.
struct HeaderField {
  std::string name;
  std::string value;
};

/// The header names the stack resolves, long or RFC 3261 §7.3.3 compact
/// ("i f t m v l c e s k"), case-insensitively. kOther is everything else.
enum class HeaderId : uint8_t {
  kVia,
  kFrom,
  kTo,
  kCallId,
  kCSeq,
  kContact,
  kContentLength,
  kAuthorization,
  kWwwAuthenticate,
  kContentType,
  kContentEncoding,
  kSubject,
  kSupported,
  kOther,
};
constexpr size_t kHeaderIdCount = static_cast<size_t>(HeaderId::kOther);

/// The one header-name index: resolves a field name to its HeaderId.
HeaderId header_id(std::string_view name);

/// Canonical (long) header name for a possibly-compact form ("v" -> "Via").
std::string_view canonical_header_name(std::string_view name);

/// Ordered multi-map of header fields with case-insensitive, compact-form
/// aware lookup.
class Headers {
 public:
  void add(std::string name, std::string value);
  /// Replace all fields of this name with a single one.
  void set(std::string name, std::string value);
  void remove(std::string_view name);

  /// First value of a header, if present.
  std::optional<std::string_view> get(std::string_view name) const;
  /// All values of a header, in message order.
  std::vector<std::string_view> get_all(std::string_view name) const;
  bool has(std::string_view name) const { return get(name).has_value(); }
  size_t count(std::string_view name) const { return get_all(name).size(); }

  const std::vector<HeaderField>& fields() const { return fields_; }
  size_t size() const { return fields_.size(); }

 private:
  std::vector<HeaderField> fields_;
};

/// The name-addr grammar as slices: `[display] <uri> ;params` or a bare
/// addr-spec `uri;params` (where every ';' param belongs to the header).
/// `params` is walked with ParamCursor, keys and values trimmed.
struct NameAddrView {
  std::string_view display_name;
  UriView uri;
  std::string_view params;

  static ParseStatus parse(std::string_view text, NameAddrView& out);

  /// The `tag` header param; the last occurrence wins. A bare `tag`
  /// yields an empty value.
  std::optional<std::string_view> tag() const;
};

/// From/To/Contact style: [display-name] <uri> ;params   (tag lives here).
struct NameAddr {
  std::string display_name;
  SipUri uri;
  std::map<std::string, std::string, std::less<>> params;

  static Result<NameAddr> parse(std::string_view text);
  std::string to_string() const;

  std::optional<std::string> tag() const {
    auto it = params.find("tag");
    if (it == params.end()) return std::nullopt;
    return it->second;
  }
  void set_tag(std::string tag) { params["tag"] = std::move(tag); }
};

/// The Via grammar as slices: SIP/2.0/<transport> host[:port][;params].
/// `params` is walked with ParamCursor, keys and values untrimmed.
struct ViaView {
  std::string_view transport;
  std::string_view host;
  uint16_t port = 5060;
  std::string_view params;

  static ParseStatus parse(std::string_view text, ViaView& out);
};

/// The top (first) via-parm of a Via field value that may comma-join several.
std::string_view top_via_value(std::string_view via_field);

/// Via: SIP/2.0/UDP host:port;branch=z9hG4bK...;params
struct Via {
  std::string transport = "UDP";
  std::string host;
  uint16_t port = 5060;
  std::map<std::string, std::string, std::less<>> params;

  static Result<Via> parse(std::string_view text);
  std::string to_string() const;

  std::optional<std::string> branch() const {
    auto it = params.find("branch");
    if (it == params.end()) return std::nullopt;
    return it->second;
  }
};

/// The CSeq grammar as slices: <number> <method>.
struct CSeqView {
  uint32_t number = 0;
  std::string_view method;

  static ParseStatus parse(std::string_view text, CSeqView& out);
};

/// CSeq: 42 INVITE
struct CSeq {
  uint32_t number = 0;
  std::string method;

  static Result<CSeq> parse(std::string_view text);
  std::string to_string() const;
};

}  // namespace scidive::sip
