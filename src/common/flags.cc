#include "src/common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "src/common/string_util.h"

namespace largeea {
namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "flag error: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) Die("expected --flag, got '" + std::string(arg) + "'");
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // `--name value` if the next token is not itself a flag; bare boolean
    // otherwise.
    if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      values_[std::string(arg)] = argv[++i];
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const auto parsed = ParseInt(it->second);
  if (!parsed) Die("flag --" + name + " is not an integer: " + it->second);
  return *parsed;
}

double Flags::GetDouble(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const auto parsed = ParseDouble(it->second);
  if (!parsed) Die("flag --" + name + " is not a number: " + it->second);
  return *parsed;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  Die("flag --" + name + " is not a boolean: " + it->second);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::vector<std::string> Flags::Names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

void FlagRegistry::Add(const std::string& name, Kind kind, void* field,
                       const std::string& help) {
  for (const Binding& b : bindings_) {
    if (b.name == name) Die("flag --" + name + " registered twice");
  }
  bindings_.push_back(Binding{name, help, kind, field});
}

void FlagRegistry::Int32(const std::string& name, int32_t* field,
                         const std::string& help) {
  Add(name, Kind::kInt32, field, help);
}
void FlagRegistry::Int64(const std::string& name, int64_t* field,
                         const std::string& help) {
  Add(name, Kind::kInt64, field, help);
}
void FlagRegistry::Uint64(const std::string& name, uint64_t* field,
                          const std::string& help) {
  Add(name, Kind::kUint64, field, help);
}
void FlagRegistry::Float(const std::string& name, float* field,
                         const std::string& help) {
  Add(name, Kind::kFloat, field, help);
}
void FlagRegistry::Double(const std::string& name, double* field,
                          const std::string& help) {
  Add(name, Kind::kDouble, field, help);
}
void FlagRegistry::Bool(const std::string& name, bool* field,
                        const std::string& help) {
  Add(name, Kind::kBool, field, help);
}
void FlagRegistry::String(const std::string& name, std::string* field,
                          const std::string& help) {
  Add(name, Kind::kString, field, help);
}

bool FlagRegistry::Knows(const std::string& name) const {
  for (const Binding& b : bindings_) {
    if (b.name == name) return true;
  }
  return false;
}

Status FlagRegistry::ApplyFrom(const Flags& flags) {
  for (Binding& b : bindings_) {
    if (!flags.Has(b.name)) continue;
    const std::string raw = flags.GetString(b.name, "");
    switch (b.kind) {
      case Kind::kInt32:
      case Kind::kInt64:
      case Kind::kUint64: {
        const auto parsed = ParseInt(raw);
        if (!parsed) {
          return InvalidArgumentError("flag --" + b.name +
                                      " is not an integer: " + raw);
        }
        if (b.kind == Kind::kInt32) {
          if (*parsed < std::numeric_limits<int32_t>::min() ||
              *parsed > std::numeric_limits<int32_t>::max()) {
            return InvalidArgumentError("flag --" + b.name +
                                        " is out of the 32-bit range: " +
                                        raw);
          }
          *static_cast<int32_t*>(b.field) = static_cast<int32_t>(*parsed);
        } else if (b.kind == Kind::kInt64) {
          *static_cast<int64_t*>(b.field) = *parsed;
        } else {
          if (*parsed < 0) {
            return InvalidArgumentError("flag --" + b.name +
                                        " must not be negative: " + raw);
          }
          *static_cast<uint64_t*>(b.field) = static_cast<uint64_t>(*parsed);
        }
        break;
      }
      case Kind::kFloat:
      case Kind::kDouble: {
        const auto parsed = ParseDouble(raw);
        if (!parsed) {
          return InvalidArgumentError("flag --" + b.name +
                                      " is not a number: " + raw);
        }
        if (b.kind == Kind::kFloat) {
          *static_cast<float*>(b.field) = static_cast<float>(*parsed);
        } else {
          *static_cast<double*>(b.field) = *parsed;
        }
        break;
      }
      case Kind::kBool: {
        if (raw == "true" || raw == "1") {
          *static_cast<bool*>(b.field) = true;
        } else if (raw == "false" || raw == "0") {
          *static_cast<bool*>(b.field) = false;
        } else {
          return InvalidArgumentError("flag --" + b.name +
                                      " is not a boolean: " + raw);
        }
        break;
      }
      case Kind::kString:
        *static_cast<std::string*>(b.field) = raw;
        break;
    }
  }
  return OkStatus();
}

std::vector<std::pair<std::string, std::string>> FlagRegistry::Values() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(bindings_.size());
  char buf[64];
  for (const Binding& b : bindings_) {
    std::string value;
    switch (b.kind) {
      case Kind::kInt32:
        std::snprintf(buf, sizeof(buf), "%d", *static_cast<int32_t*>(b.field));
        value = buf;
        break;
      case Kind::kInt64:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(*static_cast<int64_t*>(b.field)));
        value = buf;
        break;
      case Kind::kUint64:
        std::snprintf(
            buf, sizeof(buf), "%llu",
            static_cast<unsigned long long>(*static_cast<uint64_t*>(b.field)));
        value = buf;
        break;
      case Kind::kFloat:
        // %.9g round-trips every float exactly, so a value read back from
        // a run report re-parses to the same bits.
        std::snprintf(buf, sizeof(buf), "%.9g",
                      static_cast<double>(*static_cast<float*>(b.field)));
        value = buf;
        break;
      case Kind::kDouble:
        std::snprintf(buf, sizeof(buf), "%.17g",
                      *static_cast<double*>(b.field));
        value = buf;
        break;
      case Kind::kBool:
        value = *static_cast<bool*>(b.field) ? "true" : "false";
        break;
      case Kind::kString:
        value = *static_cast<std::string*>(b.field);
        break;
    }
    out.emplace_back(b.name, std::move(value));
  }
  return out;
}

std::string FlagRegistry::HelpText() const {
  const auto values = Values();
  std::string out;
  for (size_t i = 0; i < bindings_.size(); ++i) {
    out += "  --" + bindings_[i].name;
    if (!values[i].second.empty()) {
      out += " (default: " + values[i].second + ")";
    }
    out += "\n";
    if (!bindings_[i].help.empty()) {
      out += "      " + bindings_[i].help + "\n";
    }
  }
  return out;
}

}  // namespace largeea
