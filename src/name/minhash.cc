#include "src/name/minhash.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "src/common/macros.h"
#include "src/common/rng.h"

namespace largeea {
namespace {

/// FNV-1a over the `rows_per_band` values of `band`.
uint64_t BandKey(const std::vector<uint64_t>& signature, int32_t band,
                 int32_t num_bands, int32_t rows_per_band) {
  LARGEEA_CHECK_EQ(static_cast<int32_t>(signature.size()),
                   num_bands * rows_per_band);
  uint64_t key = 0xcbf29ce484222325ULL;
  for (int32_t r = 0; r < rows_per_band; ++r) {
    key ^= signature[static_cast<size_t>(band) * rows_per_band + r];
    key *= 0x100000001b3ULL;
  }
  return key;
}

/// Each band's (key, item) pairs sorted, and their directories.
MinHashLsh::Tables BandTables(
    int32_t num_bands, int32_t rows_per_band,
    const std::vector<std::vector<uint64_t>>& signatures) {
  const size_t n = signatures.size();
  LARGEEA_CHECK_LE(n, size_t{std::numeric_limits<int32_t>::max()});
  std::vector<uint64_t> keys;
  std::vector<int32_t> items;
  std::vector<uint32_t> starts;
  keys.reserve(num_bands * n);
  items.reserve(num_bands * n);
  std::vector<std::pair<uint64_t, int32_t>> band_pairs(n);
  for (int32_t band = 0; band < num_bands; ++band) {
    for (size_t i = 0; i < n; ++i) {
      band_pairs[i] = {BandKey(signatures[i], band, num_bands, rows_per_band),
                       static_cast<int32_t>(i)};
    }
    std::sort(band_pairs.begin(), band_pairs.end());
    const size_t first = keys.size();
    for (const auto& [key, item] : band_pairs) {
      keys.push_back(key);
      items.push_back(item);
    }
    const std::vector<uint32_t> band_starts =
        KeyTable::Directory(std::span<const uint64_t>(keys).subspan(first));
    starts.insert(starts.end(), band_starts.begin(), band_starts.end());
  }
  return {FlatArray<uint64_t>(std::move(keys)),
          FlatArray<int32_t>(std::move(items)),
          FlatArray<uint32_t>(std::move(starts))};
}

}  // namespace

MinHasher::MinHasher(int32_t num_permutations, uint64_t seed) {
  LARGEEA_CHECK_GT(num_permutations, 0);
  Rng rng(seed);
  mult_.resize(num_permutations);
  add_.resize(num_permutations);
  for (int32_t i = 0; i < num_permutations; ++i) {
    mult_[i] = rng.Next() | 1;  // odd multiplier: bijective mod 2^64
    add_[i] = rng.Next();
  }
}

std::vector<uint64_t> MinHasher::Signature(
    const std::vector<std::string>& tokens) const {
  std::vector<uint64_t> signature(mult_.size(),
                                  std::numeric_limits<uint64_t>::max());
  for (const std::string& token : tokens) {
    const uint64_t h = TokenHash(token);
    for (size_t i = 0; i < mult_.size(); ++i) {
      const uint64_t permuted = h * mult_[i] + add_[i];
      if (permuted < signature[i]) signature[i] = permuted;
    }
  }
  return signature;
}

double MinHasher::EstimateJaccard(const std::vector<uint64_t>& a,
                                  const std::vector<uint64_t>& b) {
  LARGEEA_CHECK_EQ(a.size(), b.size());
  LARGEEA_CHECK(!a.empty());
  int64_t equal = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++equal;
  }
  return static_cast<double>(equal) / static_cast<double>(a.size());
}

MinHashLsh::MinHashLsh(int32_t num_bands, int32_t rows_per_band,
                       int32_t num_items, Tables tables)
    : num_bands_(num_bands),
      rows_per_band_(rows_per_band),
      num_items_(num_items),
      tables_(std::move(tables)) {
  LARGEEA_CHECK_GT(num_bands, 0);
  LARGEEA_CHECK_GT(rows_per_band, 0);
  const size_t n = static_cast<size_t>(num_items);
  const size_t d = KeyTable::DirectorySize(n);
  bands_.reserve(num_bands);
  for (int32_t band = 0; band < num_bands; ++band) {
    bands_.emplace_back(tables_.keys.span().subspan(band * n, n),
                        tables_.starts.span().subspan(band * d, d));
  }
}

MinHashLsh::MinHashLsh(int32_t num_bands, int32_t rows_per_band,
                       const std::vector<std::vector<uint64_t>>& signatures)
    : MinHashLsh(num_bands, rows_per_band,
                 static_cast<int32_t>(signatures.size()),
                 BandTables(num_bands, rows_per_band, signatures)) {}

StatusOr<MinHashLsh> MinHashLsh::FromTables(int32_t num_bands,
                                            int32_t rows_per_band,
                                            int32_t num_items, Tables tables) {
  if (num_bands <= 0 || rows_per_band <= 0 || num_items < 0) {
    return DataLossError("band tables: implausible shape");
  }
  const size_t n = static_cast<size_t>(num_items);
  const size_t d = KeyTable::DirectorySize(n);
  if (tables.keys.size() / num_bands != n ||
      tables.keys.size() % num_bands != 0 ||
      tables.items.size() != tables.keys.size() ||
      tables.starts.size() / num_bands != d ||
      tables.starts.size() % num_bands != 0) {
    return DataLossError("band tables: sizes do not match the banding");
  }
  for (int32_t band = 0; band < num_bands; ++band) {
    const auto keys = tables.keys.span().subspan(band * n, n);
    const auto items = tables.items.span().subspan(band * n, n);
    LARGEEA_RETURN_IF_ERROR(KeyTable::Check(
        keys, tables.starts.span().subspan(band * d, d), /*unique=*/false,
        "band table " + std::to_string(band)));
    for (size_t i = 0; i < n; ++i) {
      if (items[i] < 0 || items[i] >= num_items) {
        return DataLossError("band tables: item id out of range");
      }
      if (i > 0 && keys[i - 1] == keys[i] && items[i - 1] >= items[i]) {
        return DataLossError("band tables: items out of order");
      }
    }
  }
  return MinHashLsh(num_bands, rows_per_band, num_items, std::move(tables));
}

std::vector<int32_t> MinHashLsh::Collisions(
    const std::vector<uint64_t>& signature) const {
  std::vector<int32_t> collisions;
  const size_t n = static_cast<size_t>(num_items_);
  for (int32_t band = 0; band < num_bands_; ++band) {
    const auto [first, last] = bands_[band].Find(
        BandKey(signature, band, num_bands_, rows_per_band_));
    const int32_t* items = tables_.items.data() + band * n;
    collisions.insert(collisions.end(), items + first, items + last);
  }
  return collisions;
}

std::vector<int32_t> MinHashLsh::Query(
    const std::vector<uint64_t>& signature) const {
  std::vector<int32_t> candidates = Collisions(signature);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

std::vector<int32_t> MinHashLsh::QueryTop(
    const std::vector<uint64_t>& signature, int32_t limit) const {
  std::vector<int32_t> collisions = Collisions(signature);
  std::sort(collisions.begin(), collisions.end());

  // Run-length encode into (id, band count); ids stay ascending.
  std::vector<std::pair<int32_t, int32_t>> counted;
  for (size_t i = 0; i < collisions.size();) {
    size_t j = i;
    while (j < collisions.size() && collisions[j] == collisions[i]) ++j;
    counted.push_back({collisions[i], static_cast<int32_t>(j - i)});
    i = j;
  }
  if (limit > 0 && static_cast<int32_t>(counted.size()) > limit) {
    std::nth_element(counted.begin(), counted.begin() + limit, counted.end(),
                     [](const std::pair<int32_t, int32_t>& a,
                        const std::pair<int32_t, int32_t>& b) {
                       if (a.second != b.second) return a.second > b.second;
                       return a.first < b.first;
                     });
    counted.resize(limit);
  }
  std::vector<int32_t> ids;
  ids.reserve(counted.size());
  for (const auto& [id, count] : counted) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace largeea
