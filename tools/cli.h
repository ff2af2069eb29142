#pragma once

// The argument parser shared by the command-line tools (ba_cli, lint_trace,
// stamp_trace), plus the whole-file helpers they all use.
//
// A command is a table: its positionals in order and its options, each
// bound to the variable it fills. parse() checks every argument against the
// table and either fills every slot or prints one error and the command's
// usage line (generated from the same table) and returns false. The errors:
//
//   <command>: unknown option '--bogus'
//   <command>: option '--jobs' needs a value N
//   <command>: missing <n>
//   <command>: unexpected argument 'x'
//   <command>: bad <name> '<text>' (want <what>)
//
// where `want` is "an unsigned 32-bit integer", "an unsigned 64-bit integer"
// or "0 or 1". Numbers are plain decimal digits that fit their slot: no
// sign, no spaces, no trailing text.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "runtime/serde.h"

namespace ba::cli {

/// Where an argument's value goes. bool* is a bare flag; an optional stays
/// empty when the argument is absent; std::vector<int>* collects every
/// remaining positional as a bit.
using Slot = std::variant<bool*, std::string*, std::uint32_t*, std::uint64_t*,
                          std::optional<std::string>*,
                          std::optional<std::uint32_t>*,
                          std::optional<std::uint64_t>*, std::vector<int>*>;

struct Arg {
  std::string_view name;  // "--jobs" for an option, "n" for a positional
  std::string_view meta;  // an option's value in the usage text ("N")
  Slot slot;
  /// A positional that may be omitted ([n]); an option whose value may be
  /// omitted (it is taken only when the next argument is not an option,
  /// and a bare occurrence stores "").
  bool optional = false;
};

/// Positional `name`: shorthand for an Arg without a value placeholder.
inline Arg positional(std::string_view name, Slot slot, bool optional = false) {
  return {name, {}, slot, optional};
}

struct Command {
  std::string name;  // "ba_cli run"
  std::vector<Arg> positionals;
  std::vector<Arg> options;

  /// "  <name> <positionals> [options]", wrapped at 80 columns.
  [[nodiscard]] std::string usage() const;
};

/// Fills `cmd`'s slots from argv[0..argc); false after printing the error.
/// With a null argv it only prints the usage line and returns false, so a
/// program can list its commands by calling each one that way.
bool parse(const Command& cmd, int argc, char** argv);

/// Prints `message` and a newline on stderr and returns `code`.
int fail(int code, const std::string& message);

/// `text` as an unsigned decimal integer no larger than `max`.
std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t max = UINT64_MAX);

std::optional<Bytes> read_file(const std::string& path);
/// False when `path` cannot be opened or fully written.
bool write_file(const std::string& path, std::string_view data);
inline bool write_file(const std::string& path, const Bytes& bytes) {
  return write_file(path, {reinterpret_cast<const char*>(bytes.data()),
                           bytes.size()});
}

}  // namespace ba::cli
