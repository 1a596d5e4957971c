#include "src/common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/common/check.h"

namespace hovercraft {
namespace {

// Spec column width of the generated usage; longer specs get two spaces.
constexpr size_t kSpecColumn = 25;

}  // namespace

bool SplitFields(std::string_view item, char sep, std::span<std::string_view> out) {
  size_t n = 0;
  while (true) {
    const size_t at = item.find(sep);
    if (n == out.size()) {
      return false;
    }
    out[n++] = item.substr(0, at);
    if (at == std::string_view::npos) {
      return n == out.size();
    }
    item.remove_prefix(at + 1);
  }
}

void Flags::AddFlag(std::string_view spec, std::string_view help, bool list,
                    std::function<bool(std::string_view)> set, std::string_view want) {
  Flag flag;
  flag.spec = spec;
  flag.help = help;
  flag.list = list;
  flag.set = std::move(set);
  HC_CHECK(spec.size() >= 2 && spec[0] == '-');
  flag.short_form = spec[1] != '-';
  const size_t split = spec.find(flag.short_form ? ' ' : '=');
  flag.name = spec.substr(0, split);
  flag.takes_value = split != std::string_view::npos;
  if (!want.empty()) {
    flag.want = want;
  } else if (flag.takes_value) {
    flag.want = spec.substr(split + 1);
  }
  HC_CHECK(Find(flag.name) == nullptr);  // each flag is declared once
  flags_.push_back(std::move(flag));
}

void Flags::Add(std::string_view spec, bool* target, std::string_view help) {
  AddFlag(spec, help, false, [target](std::string_view) {
    *target = true;
    return true;
  });
  HC_CHECK(!flags_.back().takes_value);  // a boolean's spec has no METAVAR
}

void Flags::AddNegated(std::string_view spec, bool* target, std::string_view help) {
  HC_CHECK(spec.starts_with("--no-"));
  AddFlag(spec, help, false, [target](std::string_view) {
    *target = false;
    return true;
  });
  HC_CHECK(!flags_.back().takes_value);
}

void Flags::Add(std::string_view spec, std::string* target, std::string_view help) {
  AddFlag(spec, help, false, [target](std::string_view v) {
    *target = v;
    return true;
  });
}

void Flags::AddDuration(std::string_view spec, TimeNs* target, TimeNs unit,
                        std::string_view help) {
  AddFlag(spec, help, false,
          [target, unit](std::string_view v) {
            int64_t count = 0;
            if (!ParseNumber(v, &count)) {
              return false;
            }
            *target = count * unit;
            return true;
          },
          "an integer");
}

const Flags::Flag* Flags::Find(std::string_view name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

bool Flags::Apply(const Flag& flag, std::string_view value) {
  bool ok = true;
  if (!flag.list) {
    ok = flag.set(value);
  } else {
    // Empty items are skipped ("a,,b", a trailing comma); an empty list is not.
    size_t items = 0;
    for (std::string_view rest = value; ok;) {
      const size_t comma = rest.find(',');
      const std::string_view item = rest.substr(0, comma);
      if (!item.empty()) {
        ok = flag.set(item);
        ++items;
      }
      if (comma == std::string_view::npos) {
        break;
      }
      rest.remove_prefix(comma + 1);
    }
    ok = ok && items > 0;
  }
  if (!ok) {
    error_ = "bad " + flag.name + (flag.short_form ? " " : "=") + std::string(value) + " (want " +
             flag.want + ")";
  }
  return ok;
}

Flags::Outcome Flags::Parse(int argc, const char* const* argv) {
  error_.clear();
  bool help = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help = true;
      continue;
    }
    const size_t eq = arg.starts_with("--") ? arg.find('=') : std::string_view::npos;
    const Flag* flag = Find(arg.substr(0, eq));
    if (flag == nullptr) {
      error_ = "unknown flag: " + std::string(arg);
      return Outcome::kError;
    }
    std::string_view value;
    if (flag->short_form) {
      if (i + 1 >= argc) {
        error_ = flag->name + " needs a value (" + flag->spec + ")";
        return Outcome::kError;
      }
      value = argv[++i];
    } else if (flag->takes_value != (eq != std::string_view::npos)) {
      error_ = flag->takes_value ? flag->name + " needs a value (" + flag->spec + ")"
                                 : flag->name + " takes no value";
      return Outcome::kError;
    } else if (flag->takes_value) {
      value = arg.substr(eq + 1);
    }
    if (!Apply(*flag, value)) {
      return Outcome::kError;
    }
  }
  return help ? Outcome::kHelp : Outcome::kOk;
}

std::string Flags::Usage() const {
  std::string out = "usage: " + program_ + " [flags]\n";
  const std::string indent(2 + kSpecColumn, ' ');
  auto entry = [&](const std::string& spec, std::string_view help) {
    out += "  " + spec;
    out += spec.size() + 2 <= kSpecColumn ? std::string(kSpecColumn - spec.size(), ' ') : "  ";
    size_t line = 0;
    while (true) {
      const size_t nl = help.find('\n', line);
      out += help.substr(line, nl - line);
      out += '\n';
      if (nl == std::string_view::npos) {
        break;
      }
      out += indent;
      line = nl + 1;
    }
  };
  for (const Flag& flag : flags_) {
    entry(flag.spec, flag.help);
  }
  entry("-h, --help", "print this help and exit");
  return out;
}

void Flags::ParseOrExit(int argc, const char* const* argv) {
  switch (Parse(argc, argv)) {
    case Outcome::kOk:
      return;
    case Outcome::kHelp:
      std::fputs(Usage().c_str(), stdout);
      std::exit(0);
    case Outcome::kError:
      std::fprintf(stderr, "%s\n%s", error_.c_str(), Usage().c_str());
      std::exit(2);
  }
}

}  // namespace hovercraft
