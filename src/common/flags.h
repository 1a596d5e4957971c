// Table-driven command-line flags, shared by every tool and bench binary.
//
// Each flag is declared once — its spelling, the variable it writes and its
// help line — and the usage text is generated from those declarations, so
// `--help` always lists exactly what the parser accepts:
//
//   Flags flags("chaos_runner");
//   flags.Add("--seed=S", &opts.seed, "replay seed (default 1)");
//   flags.Add("--retries", &opts.retries, "enable client retransmission");
//   flags.AddNegated("--no-dedup", &config.dedup_enabled, "disable dedup");
//   flags.AddDuration("--duration-ms=M", &opts.duration, Millis(1), "load window");
//   flags.ParseOrExit(argc, argv);
//
// Spec forms: "--name=METAVAR" takes its value after '='; a bare "--name"
// is a boolean (present = true; AddNegated's "--no-name" = false); "-x
// METAVAR" is a short flag whose value is the next argument (sweep's
// `-j N`). A numeric value must be consumed in full — "3x", "abc" or an
// out-of-range number is an error naming the flag, never a silent 0.
// `--help` / `-h` are built in.
#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace hovercraft {

// Whole-string number parser: true only if all of `text` is one number that
// fits T ("+5", " 5" and "5x" are rejected); *out is untouched otherwise.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  T value{};
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

// Splits `item` on `sep` into exactly out.size() fields; false on any other
// count. For tuple-valued list items such as "T:N".
bool SplitFields(std::string_view item, char sep, std::span<std::string_view> out);

class Flags {
 public:
  explicit Flags(std::string program) : program_(std::move(program)) {}

  void Add(std::string_view spec, bool* target, std::string_view help);
  // A bare "--no-x" switch that clears `target`, for settings that default on.
  void AddNegated(std::string_view spec, bool* target, std::string_view help);
  void Add(std::string_view spec, std::string* target, std::string_view help);
  template <typename T>
    requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
  void Add(std::string_view spec, T* target, std::string_view help) {
    AddFlag(spec, help, /*list=*/false,
            [target](std::string_view v) { return ParseNumber(v, target); },
            std::is_floating_point_v<T> ? "a number"
            : std::is_signed_v<T>       ? "an integer"
                                        : "a non-negative integer");
  }
  // An integer count of `unit`: "--duration-ms=M" with unit Millis(1).
  void AddDuration(std::string_view spec, TimeNs* target, TimeNs unit, std::string_view help);
  // A comma-separated list of items, repeatable. The first use replaces the
  // target's default contents; every use appends its items.
  template <typename T>
  void AddList(std::string_view spec, std::vector<T>* target,
               bool (*parse_item)(std::string_view, T*), std::string_view help) {
    bool seen = false;
    AddFlag(spec, help, /*list=*/true, [target, parse_item, seen](std::string_view item) mutable {
      if (!seen) {
        target->clear();
        seen = true;
      }
      T value{};
      if (!parse_item(item, &value)) {
        return false;
      }
      target->push_back(value);
      return true;
    });
  }

  enum class Outcome { kOk, kHelp, kError };
  // Parses argv[1..argc). A bad flag anywhere wins over --help.
  Outcome Parse(int argc, const char* const* argv);
  // The first error of the last Parse, naming the offending flag.
  const std::string& error() const { return error_; }
  // "usage: <program> [flags]" and one aligned entry per declared flag.
  std::string Usage() const;

  // Parse, then: --help prints the usage and exits 0; an error prints the
  // message and the usage to stderr and exits 2.
  void ParseOrExit(int argc, const char* const* argv);

 private:
  struct Flag {
    std::string spec;     // as declared: "--seed=S", "--retries", "-j N"
    std::string name;     // "--seed", "--retries", "-j"
    std::string want;     // what a rejected value should have been
    std::string help;
    bool takes_value = false;
    bool short_form = false;  // value is the next argument
    bool list = false;        // value is split on ','
    std::function<bool(std::string_view)> set;
  };

  void AddFlag(std::string_view spec, std::string_view help, bool list,
               std::function<bool(std::string_view)> set, std::string_view want = {});
  const Flag* Find(std::string_view name) const;
  bool Apply(const Flag& flag, std::string_view value);

  std::string program_;
  std::vector<Flag> flags_;
  std::string error_;
};

}  // namespace hovercraft

#endif  // SRC_COMMON_FLAGS_H_
