#include "cli.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <type_traits>

namespace ba::cli {
namespace {

template <class T>
struct Unwrap {
  using type = T;
};
template <class T>
struct Unwrap<std::optional<T>> {
  using type = T;
};

bool is_list(const Arg& arg) {
  return std::holds_alternative<std::vector<int>*>(arg.slot);
}

/// Stores `text` into `slot`: "" on success, else what the slot wants.
std::string_view store(const Slot& slot, std::string_view text) {
  return std::visit(
      [text](auto* target) -> std::string_view {
        using T =
            typename Unwrap<std::remove_pointer_t<decltype(target)>>::type;
        if constexpr (std::is_same_v<T, bool>) {
          *target = true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          *target = std::string(text);
        } else if constexpr (std::is_same_v<T, std::vector<int>>) {
          if (text != "0" && text != "1") return "0 or 1";
          target->push_back(text == "1");
        } else if (const auto v =
                       parse_uint(text, std::numeric_limits<T>::max())) {
          *target = static_cast<T>(*v);
        } else {
          return std::is_same_v<T, std::uint32_t>
                     ? "an unsigned 32-bit integer"
                     : "an unsigned 64-bit integer";
        }
        return {};
      },
      slot);
}

}  // namespace

std::string Command::usage() const {
  std::string out = "  " + name;
  // Continuation lines start under the subcommand name.
  const std::size_t indent = 2 + std::min(name.find(' '), name.size());
  std::size_t col = out.size();
  const auto add = [&](const std::string& word) {
    if (col + 1 + word.size() > 80) {
      out += "\n" + std::string(indent, ' ');
      col = indent;
    }
    out += " " + word;
    col += 1 + word.size();
  };
  for (const Arg& a : positionals) {
    const std::string n(a.name);
    add(is_list(a)    ? "<" + n + "...>"
        : a.optional ? "[" + n + "]"
                     : "<" + n + ">");
  }
  for (const Arg& a : options) {
    const std::string meta(a.meta);
    const std::string value = meta.empty() ? ""
                              : a.optional ? " [" + meta + "]"
                                           : " " + meta;
    add("[" + std::string(a.name) + value + "]");
  }
  return out + "\n";
}

bool parse(const Command& cmd, int argc, char** argv) {
  if (argv == nullptr) {
    std::fputs(cmd.usage().c_str(), stderr);
    return false;
  }
  const auto reject = [&cmd](const std::string& what) {
    std::fprintf(stderr, "%s: %s\nusage:\n%s", cmd.name.c_str(), what.c_str(),
                 cmd.usage().c_str());
    return false;
  };
  const auto fill = [&](const Arg& arg, std::string_view text) {
    const std::string_view want = store(arg.slot, text);
    return want.empty() ||
           reject("bad " + std::string(arg.name) + " '" + std::string(text) +
                  "' (want " + std::string(want) + ")");
  };
  std::size_t next = 0;  // the positional the next bare argument fills
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with('-')) {
      const auto opt =
          std::find_if(cmd.options.begin(), cmd.options.end(),
                       [&](const Arg& o) { return o.name == arg; });
      if (opt == cmd.options.end()) {
        return reject("unknown option '" + arg + "'");
      }
      std::string_view value;
      if (!opt->meta.empty()) {
        if (i + 1 < argc && (!opt->optional || argv[i + 1][0] != '-')) {
          value = argv[++i];
        } else if (!opt->optional) {
          return reject("option '" + arg + "' needs a value " +
                        std::string(opt->meta));
        }
      }
      if (!fill(*opt, value)) return false;
    } else if (next == cmd.positionals.size()) {
      return reject("unexpected argument '" + arg + "'");
    } else {
      const Arg& pos = cmd.positionals[next];
      if (!is_list(pos)) ++next;
      if (!fill(pos, arg)) return false;
    }
  }
  for (; next < cmd.positionals.size(); ++next) {
    const Arg& pos = cmd.positionals[next];
    if (!pos.optional && !is_list(pos)) {
      return reject("missing <" + std::string(pos.name) + ">");
    }
  }
  return true;
}

int fail(int code, const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  return code;
}

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value > max) return std::nullopt;
  return value;
}

std::optional<Bytes> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

bool write_file(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

}  // namespace ba::cli
