#include "src/tune/tune_table.h"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/obs/json_writer.h"
#include "src/rt/io_util.h"

namespace largeea::tune {
namespace {

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

int64_t Clamp(int64_t v, int64_t lo, int64_t hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace

CacheSizes DetectCacheSizes() {
  CacheSizes sizes;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const long l1 = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  if (l1 > 0) sizes.l1_bytes = l1;
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) sizes.l2_bytes = l2;
#endif
  // Some kernels report L2=0 on VMs; keep the fallback rather than a
  // degenerate panel size.
  if (sizes.l1_bytes <= 0) sizes.l1_bytes = 32 * 1024;
  if (sizes.l2_bytes <= 0) sizes.l2_bytes = 1024 * 1024;
  return sizes;
}

const std::vector<TuneParamInfo>& TuneParams() {
  static const std::vector<TuneParamInfo>* kParams =
      new std::vector<TuneParamInfo>{
          {"gemm.row_grain", &TuneOverrides::gemm_row_grain},
          {"gemm.panel", &TuneOverrides::gemm_panel},
          {"gemm.cache_bytes", &TuneOverrides::gemm_cache_bytes},
          {"gemm.tile_cols", &TuneOverrides::gemm_tile_cols},
          {"elem.grain", &TuneOverrides::elem_grain},
          {"norm.row_grain", &TuneOverrides::norm_row_grain},
          {"sinkhorn.row_grain", &TuneOverrides::sinkhorn_row_grain},
          {"topk.row_grain", &TuneOverrides::topk_row_grain},
          {"par.chunks_per_thread", &TuneOverrides::chunks_per_thread},
      };
  return *kParams;
}

Status SetOverrideByName(TuneOverrides& overrides, const std::string& name,
                         int64_t value) {
  if (value < 0) {
    return InvalidArgumentError("tune parameter '" + name +
                                "' must be >= 0 (0 = analytic default), got " +
                                std::to_string(value));
  }
  for (const TuneParamInfo& param : TuneParams()) {
    if (name == param.name) {
      overrides.*param.field = value;
      return OkStatus();
    }
  }
  return InvalidArgumentError("unknown tune parameter '" + name + "'");
}

Status ApplyOverrideList(TuneOverrides& overrides, const std::string& list) {
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string_view item(list.data() + pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgumentError(
          "--tune-override item '" + std::string(item) +
          "' is not of the form name=value");
    }
    const std::string name(item.substr(0, eq));
    const std::string value_str(item.substr(eq + 1));
    char* end = nullptr;
    const long long value = std::strtoll(value_str.c_str(), &end, 10);
    if (end == value_str.c_str() || *end != '\0') {
      return InvalidArgumentError("--tune-override value for '" + name +
                                  "' is not an integer: '" + value_str + "'");
    }
    LARGEEA_RETURN_IF_ERROR(
        SetOverrideByName(overrides, name, static_cast<int64_t>(value)));
  }
  return OkStatus();
}

std::string CanonicalTuneString(const TuneOverrides& overrides) {
  std::string out;
  for (const TuneParamInfo& param : TuneParams()) {
    out += param.name;
    out += '=';
    out += std::to_string(overrides.*param.field);
    out += ';';
  }
  return out;
}

uint64_t TuneFingerprint(const TuneOverrides& overrides) {
  return rt::Fnv1a64(CanonicalTuneString(overrides));
}

Status SaveTuneFile(const std::string& path, const TuneOverrides& overrides) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("largeea_tune").Int(1);
  w.Key("params").BeginObject();
  for (const TuneParamInfo& param : TuneParams()) {
    const int64_t value = overrides.*param.field;
    if (value != 0) w.Key(param.name).Int(value);
  }
  w.EndObject();
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(TuneFingerprint(overrides)));
  w.Key("checksum").String(checksum);
  w.EndObject();
  std::string content = w.str();
  content += '\n';
  return rt::AtomicallyWriteFile(path, content).WithContext("tune file");
}

namespace {

// Minimal scanner for the tuning-file JSON we write ourselves: a flat
// "params" object of "name": int pairs plus a "checksum" string. A full
// JSON parser would be overkill for a format this repo both writes and
// reads; anything the scanner cannot account for is kInvalidArgument.
Status ScanTuneJson(const std::string& text, TuneOverrides& overrides,
                    std::string& checksum) {
  if (text.find("\"largeea_tune\"") == std::string::npos) {
    return InvalidArgumentError("missing \"largeea_tune\" marker");
  }
  const size_t params_key = text.find("\"params\"");
  if (params_key == std::string::npos) {
    return InvalidArgumentError("missing \"params\" object");
  }
  const size_t open = text.find('{', params_key);
  const size_t close = text.find('}', params_key);
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    return InvalidArgumentError("malformed \"params\" object");
  }
  size_t pos = open + 1;
  while (pos < close) {
    const size_t quote = text.find('"', pos);
    if (quote == std::string::npos || quote >= close) break;
    const size_t quote_end = text.find('"', quote + 1);
    if (quote_end == std::string::npos || quote_end >= close) {
      return InvalidArgumentError("unterminated parameter name");
    }
    const std::string name = text.substr(quote + 1, quote_end - quote - 1);
    const size_t colon = text.find(':', quote_end);
    if (colon == std::string::npos || colon >= close) {
      return InvalidArgumentError("parameter '" + name + "' has no value");
    }
    size_t value_begin = colon + 1;
    while (value_begin < close &&
           std::isspace(static_cast<unsigned char>(text[value_begin]))) {
      ++value_begin;
    }
    size_t value_end = value_begin;
    while (value_end < close &&
           (std::isdigit(static_cast<unsigned char>(text[value_end])) ||
            text[value_end] == '-')) {
      ++value_end;
    }
    if (value_end == value_begin) {
      return InvalidArgumentError("parameter '" + name +
                                  "' has a non-integer value");
    }
    const int64_t value =
        std::strtoll(text.substr(value_begin, value_end - value_begin).c_str(),
                     nullptr, 10);
    LARGEEA_RETURN_IF_ERROR(SetOverrideByName(overrides, name, value));
    pos = value_end;
  }

  const size_t checksum_key = text.find("\"checksum\"", close);
  if (checksum_key == std::string::npos) {
    return InvalidArgumentError("missing \"checksum\"");
  }
  const size_t cs_open = text.find('"', checksum_key + 10);
  if (cs_open == std::string::npos) {
    return InvalidArgumentError("malformed \"checksum\"");
  }
  const size_t cs_close = text.find('"', cs_open + 1);
  if (cs_close == std::string::npos) {
    return InvalidArgumentError("malformed \"checksum\"");
  }
  checksum = text.substr(cs_open + 1, cs_close - cs_open - 1);
  return OkStatus();
}

}  // namespace

StatusOr<TuneOverrides> LoadTuneFile(const std::string& path) {
  StatusOr<std::string> text = rt::ReadFileToString(path);
  if (!text.ok()) return text.status();
  TuneOverrides overrides;
  std::string checksum;
  const Status scanned = ScanTuneJson(*text, overrides, checksum);
  if (!scanned.ok()) return scanned.WithContext("tune file " + path);
  char expected[32];
  std::snprintf(expected, sizeof(expected), "%016llx",
                static_cast<unsigned long long>(TuneFingerprint(overrides)));
  if (checksum != expected) {
    return DataLossError("tune file " + path + " checksum mismatch: file says " +
                         checksum + ", params hash to " + expected);
  }
  return overrides;
}

// ---------------------------------------------------------------------
// TuneTable

namespace {

// Leaked-pointer singleton swap, same idiom as the SIMD dispatch table:
// readers take one acquire load, Set() installs a fresh immutable table.
std::atomic<const TuneTable*>& TableSlot() {
  static std::atomic<const TuneTable*> slot{nullptr};
  return slot;
}

}  // namespace

TuneTable::TuneTable() : cache_(DetectCacheSizes()) {}

TuneTable::TuneTable(const TuneOverrides& overrides)
    : overrides_(overrides), cache_(DetectCacheSizes()) {}

const TuneTable& TuneTable::Get() {
  const TuneTable* table = TableSlot().load(std::memory_order_acquire);
  if (table == nullptr) {
    static const TuneTable* defaults = new TuneTable();
    const TuneTable* expected = nullptr;
    TableSlot().compare_exchange_strong(expected, defaults,
                                        std::memory_order_acq_rel);
    table = TableSlot().load(std::memory_order_acquire);
  }
  return *table;
}

void TuneTable::Set(const TuneOverrides& overrides) {
  // Replaced tables are never freed, since kernels may hold a reference
  // across the swap. They stay reachable from `retired`, so the leak
  // checker of the ASan builds does not report them.
  static std::mutex mu;
  static auto* const retired = new std::vector<const TuneTable*>();
  const TuneTable* previous = TableSlot().exchange(
      new TuneTable(overrides), std::memory_order_acq_rel);
  if (previous != nullptr) {
    std::lock_guard<std::mutex> lock(mu);
    retired->push_back(previous);
  }
}

int64_t TuneTable::GemmRowGrain(int64_t m) const {
  if (overrides_.gemm_row_grain > 0) return overrides_.gemm_row_grain;
  if (m <= 0) return 16;
  // Target ~kTargetChunks chunks, rounded up to a 16-row multiple so
  // chunk starts stay line-aligned for the row-major panels.
  const int64_t grain = CeilDiv(m, kTargetChunks);
  return Clamp(CeilDiv(grain, 16) * 16, 16, m < 16 ? 16 : m);
}

int64_t TuneTable::GemmPanel(int64_t k, int64_t n) const {
  if (overrides_.gemm_panel > 0) return overrides_.gemm_panel;
  const int64_t cache = overrides_.gemm_cache_bytes > 0
                            ? overrides_.gemm_cache_bytes
                            : cache_.l2_bytes;
  // Whole-B fits: no panelling needed.
  if (k * n * 4 <= cache) return k > 0 ? k : 1;
  // Keep a half-cache worth of B rows resident per panel pass.
  if (n <= 0) return 64;
  return Clamp((cache / 2) / (4 * n), 16, 256);
}

int64_t TuneTable::GemmTileCols(int64_t k) const {
  if (overrides_.gemm_tile_cols > 0) return overrides_.gemm_tile_cols;
  if (k <= 0) return 32;
  // A tile of B rows should fit in half of L1 next to the A row.
  return Clamp((cache_.l1_bytes / 2) / (4 * k), 8, 128);
}

int64_t TuneTable::ElemGrain(int64_t size) const {
  if (overrides_.elem_grain > 0) return overrides_.elem_grain;
  const int64_t floor_grain = int64_t{1} << 14;
  if (size <= floor_grain) return floor_grain;
  const int64_t grain = CeilDiv(size, kTargetChunks);
  return grain < floor_grain ? floor_grain : grain;
}

int64_t TuneTable::NormRowGrain(int64_t rows) const {
  if (overrides_.norm_row_grain > 0) return overrides_.norm_row_grain;
  if (rows <= 16) return 16;
  const int64_t grain = CeilDiv(rows, kTargetChunks);
  return grain < 16 ? 16 : grain;
}

int64_t TuneTable::SinkhornRowGrain(int64_t rows) const {
  if (overrides_.sinkhorn_row_grain > 0) return overrides_.sinkhorn_row_grain;
  if (rows <= 64) return 64;
  const int64_t grain = CeilDiv(rows, kTargetChunks);
  return grain < 64 ? 64 : grain;
}

int64_t TuneTable::TopKRowGrain(int64_t rows) const {
  if (overrides_.topk_row_grain > 0) return overrides_.topk_row_grain;
  if (rows <= 8) return 8;
  const int64_t grain = CeilDiv(rows, kTargetChunks);
  return grain < 8 ? 8 : grain;
}

int64_t TuneTable::ChunksPerThread() const {
  if (overrides_.chunks_per_thread > 0) return overrides_.chunks_per_thread;
  return 16;
}

int64_t TuneTable::SinkhornColChunks(int64_t num_entries) {
  // Pure function of shape (see header): enough chunks that the column
  // scatter parallelises, few enough that the tree merge tail stays
  // shallow. ~256K entries per chunk.
  if (num_entries <= 0) return 2;
  return Clamp(CeilDiv(num_entries, int64_t{1} << 18), 2, 32);
}

int64_t TuneTable::GemmTransposeAGrain(int64_t m) {
  // Bounded partial count (each partial is a k×n matrix); identical to
  // the historical formula so existing checkpoints keep their bytes.
  constexpr int64_t kMaxChunks = 16;
  constexpr int64_t kMinGrain = 64;
  if (m <= 0) return kMinGrain;
  const int64_t grain = CeilDiv(m, kMaxChunks);
  return grain < kMinGrain ? kMinGrain : grain;
}

std::string TuneTable::Describe() const {
  std::string out = "tune: ";
  for (const TuneParamInfo& param : TuneParams()) {
    const int64_t value = overrides_.*param.field;
    out += param.name;
    out += '=';
    out += value == 0 ? "auto" : std::to_string(value);
    out += ' ';
  }
  out += "(l1=" + std::to_string(cache_.l1_bytes) +
         "B l2=" + std::to_string(cache_.l2_bytes) + "B)";
  return out;
}

}  // namespace largeea::tune
