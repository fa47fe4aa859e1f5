// Command-line flags shared by the pier tools: `--key=value` and bare
// `--key` (value "1") arguments, checked against the tool's list of
// known flags and read back as strings or as checked numbers.

#ifndef PIER_TOOLS_FLAGS_H_
#define PIER_TOOLS_FLAGS_H_

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace pier::tools {

using Flags = std::map<std::string, std::string>;

// Parses argv. A positional argument or a flag not in `known` (say, a
// typo such as --algoritm, which would otherwise be silently ignored)
// prints a diagnostic and exits with status 2.
inline Flags ParseArgs(int argc, char** argv,
                       std::initializer_list<std::string_view> known) {
  Flags args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg.erase(0, 2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      // A std::string: assigning the literal trips GCC 12's false
      // -Wrestrict warning.
      args.insert_or_assign(arg, std::string("1"));
    } else {
      args.insert_or_assign(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
  for (const auto& [key, value] : args) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      std::exit(2);
    }
  }
  return args;
}

inline std::string Get(const Flags& args, const std::string& key,
                       const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

// The value of numeric flag --key, or `fallback` when it is absent. The
// whole value must parse as a T and fit it (no sign for unsigned T, no
// trailing characters); otherwise prints
// `flag --key: expected <type>, got "<value>"` and exits with status 2.
template <typename T>
T GetNumber(const Flags& args, const std::string& key, T fallback) {
  static_assert(std::is_floating_point_v<T> || std::is_unsigned_v<T>);
  const auto it = args.find(key);
  if (it == args.end()) return fallback;
  const std::string& value = it->second;
  const char* end = value.data() + value.size();
  T parsed{};
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "flag --%s: expected %s, got \"%s\"\n", key.c_str(),
                 std::is_floating_point_v<T> ? "a number"
                                             : "a non-negative integer",
                 value.c_str());
    std::exit(2);
  }
  return parsed;
}

}  // namespace pier::tools

#endif  // PIER_TOOLS_FLAGS_H_
