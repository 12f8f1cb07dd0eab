// Small string helpers shared across modules.
#ifndef SECUREBLOX_COMMON_STRINGS_H_
#define SECUREBLOX_COMMON_STRINGS_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace secureblox {

/// Concatenate `parts` by appending. Use it for a "literal" + std::string
/// expression: GCC 12 inlines that operator+ as an insert at the front and
/// prints a false -Wrestrict for it in optimized builds.
std::string StrCat(std::initializer_list<std::string_view> parts);

/// Join `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Split `s` on character `sep` (no empty-trailing suppression).
std::vector<std::string> Split(const std::string& s, char sep);

/// Strip ASCII whitespace from both ends.
std::string Trim(const std::string& s);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(const std::string& s, const std::string& prefix);
bool EndsWith(const std::string& s, const std::string& suffix);

}  // namespace secureblox

#endif  // SECUREBLOX_COMMON_STRINGS_H_
