// Locale-independent numeric formatting and parsing, and the relative
// tolerance comparison the Eq. 1 conservation checks share.
//
// std::strtod and std::snprintf("%g" / "%a") honor the process's global C
// locale: under a comma-decimal locale (de_DE, fr_FR, ...) they emit
// "3,14" and stop parsing "3.14" at the '.', silently truncating the
// value. Checkpoints (core/checkpoint.h), CSV datasets (data/csv.h), and
// the JSON artifacts (obs/json.h) are *interchange formats* whose grammar
// fixes '.' as the decimal separator, so every writer and parser of those
// formats funnels through the std::from_chars / std::to_chars helpers
// here, which are locale-independent by specification. A server embedding
// the library must be free to call setlocale() (or link code that does)
// without corrupting its own persistence formats.

#ifndef NC_COMMON_NUMERIC_H_
#define NC_COMMON_NUMERIC_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace nc {

// Shortest decimal form that parses back to exactly `v` ("0.1",
// "2.5e-12"). Non-finite values format as "inf" / "-inf" / "nan".
std::string FormatDouble(double v);

// C-hexfloat form with the "0x" prefix ("0x1.8p+1"), matching printf %a
// in the C locale: byte-exact round-trips for every double, infinities
// included. Used by the checkpoint format.
std::string FormatHexDouble(double v);

// Parses a complete token as a double: decimal or hexfloat (with the
// "0x" prefix), plus "inf" / "infinity" / "nan", all optionally signed.
// The whole token must be consumed; ',' is never a decimal separator.
// Returns false on failure with *out untouched.
bool ParseDouble(std::string_view token, double* out);

// Parses a complete token as a base-10 uint64_t (digits only: no sign,
// whitespace, or base prefix). Returns false on failure, *out untouched.
bool ParseUInt64(std::string_view token, uint64_t* out);

// a == b within relative tolerance `tol` anchored at 1 (values near zero
// compare absolutely): |a - b| <= tol * max(1, |a|, |b|).
bool NearlyEqual(double a, double b, double tol);

}  // namespace nc

#endif  // NC_COMMON_NUMERIC_H_
