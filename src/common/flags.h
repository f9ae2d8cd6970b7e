// Minimal command-line flag parsing for the bench and example binaries.
//
// Accepted forms: --name=value, --name value, and bare --name for booleans.
// Malformed arguments (a token that is not --flag) abort. Flags itself
// accepts any flag name; a binary that wants typos to fail checks
// Names() against the flags it knows (largeea_cli does: an unknown flag
// exits 2 naming it).
//
// Two layers:
//   * Flags — the raw argv -> string map with typed lookups;
//   * FlagRegistry — a declarative binding table mapping flag names to
//     struct fields, so a configuration struct (largeea::Config) declares
//     each knob exactly once and every binary parses, documents, and
//     reports it identically.
#ifndef LARGEEA_COMMON_FLAGS_H_
#define LARGEEA_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/rt/status.h"

namespace largeea {

/// Parses argv into a name->value map and serves typed lookups.
class Flags {
 public:
  /// Parses the command line. Aborts on malformed arguments.
  Flags(int argc, char** argv);

  /// Returns the flag value or `def` if the flag was not passed.
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;
  std::string GetString(const std::string& name, const std::string& def) const;

  /// True if the flag appeared on the command line.
  bool Has(const std::string& name) const { return values_.contains(name); }

  /// Every flag name that appeared on the command line, sorted.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, std::string> values_;
};

/// Declarative flag -> struct-field binding table.
///
/// A config struct registers each knob once (name, target field, help
/// text); the registry then overlays parsed Flags onto the fields
/// (`ApplyFrom`), renders `--help` output (`HelpText`), and snapshots
/// the *effective* values for run reports (`Values`) — so parsing,
/// documentation, and reporting can never drift apart.
class FlagRegistry {
 public:
  void Int32(const std::string& name, int32_t* field, const std::string& help);
  void Int64(const std::string& name, int64_t* field, const std::string& help);
  void Uint64(const std::string& name, uint64_t* field,
              const std::string& help);
  void Float(const std::string& name, float* field, const std::string& help);
  void Double(const std::string& name, double* field, const std::string& help);
  void Bool(const std::string& name, bool* field, const std::string& help);
  void String(const std::string& name, std::string* field,
              const std::string& help);

  /// Overlays every flag present in `flags` onto its bound field.
  /// Unparseable values (e.g. --epochs=abc), integers outside an Int32
  /// field's range and negative Uint64 values fail with
  /// kInvalidArgument naming the flag; flags with no binding are left
  /// for the caller.
  Status ApplyFrom(const Flags& flags);

  /// True if `name` is bound. Lets callers distinguish registry flags
  /// from binary-local ones (positional-ish inputs like --source).
  bool Knows(const std::string& name) const;

  /// (flag name, current value) for every binding, in registration
  /// order. After ApplyFrom this is the effective configuration;
  /// floats render with %.9g so reports round-trip exactly.
  std::vector<std::pair<std::string, std::string>> Values() const;

  /// One "  --name (default: value)\n      help" block per binding.
  std::string HelpText() const;

 private:
  enum class Kind { kInt32, kInt64, kUint64, kFloat, kDouble, kBool, kString };
  struct Binding {
    std::string name;
    std::string help;
    Kind kind;
    void* field;
  };
  void Add(const std::string& name, Kind kind, void* field,
           const std::string& help);

  std::vector<Binding> bindings_;
};

}  // namespace largeea

#endif  // LARGEEA_COMMON_FLAGS_H_
