// MinHash signatures and LSH banding (datasketch substitute).
//
// STNS needs the Jaccard-similar name pairs without comparing all
// |Es| x |Et| names. MinHash signatures estimate Jaccard similarity of
// token sets; LSH banding buckets signatures so that pairs above the
// threshold collide in at least one band with high probability.
#ifndef LARGEEA_NAME_MINHASH_H_
#define LARGEEA_NAME_MINHASH_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/flat_array.h"
#include "src/name/key_table.h"
#include "src/name/tokenizer.h"
#include "src/rt/status.h"

namespace largeea {

/// A fixed family of `num_permutations` universal hash functions; all
/// signatures meant to be compared must come from the same family.
class MinHasher {
 public:
  MinHasher(int32_t num_permutations, uint64_t seed);

  /// Signature of a token multiset (duplicates are irrelevant). An empty
  /// token list yields the all-max signature (similar to nothing).
  std::vector<uint64_t> Signature(
      const std::vector<std::string>& tokens) const;

  /// Jaccard estimate: fraction of positions where signatures agree.
  static double EstimateJaccard(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b);

  int32_t num_permutations() const {
    return static_cast<int32_t>(mult_.size());
  }

 private:
  std::vector<uint64_t> mult_;
  std::vector<uint64_t> add_;
};

/// LSH banding over MinHash signatures: signatures are split into
/// `num_bands` bands of `rows_per_band` values; two items collide if any
/// band hashes identically. Each band is a flat table (key_table.h) of
/// (band key, item) pairs sorted by key, then item, built once over all
/// items — STNS bands the target names, and the serve index stores the
/// tables in its image and borrows them from the mapping.
class MinHashLsh {
 public:
  /// The band tables as flat arrays. Band b's pairs sit at
  /// [b * num_items, (b + 1) * num_items) of `keys` and `items`, and its
  /// directory at [b * d, (b + 1) * d) of `starts`, for d =
  /// KeyTable::DirectorySize(num_items).
  struct Tables {
    FlatArray<uint64_t> keys;
    FlatArray<int32_t> items;
    FlatArray<uint32_t> starts;
  };

  /// Bands items 0..n-1, item i with `signatures[i]`; each signature is
  /// num_bands * rows_per_band long.
  MinHashLsh(int32_t num_bands, int32_t rows_per_band,
             const std::vector<std::vector<uint64_t>>& signatures);

  /// Tables laid out earlier (the serve index's, borrowed from its image).
  /// DATA_LOSS unless every array has its size, each band's keys ascend
  /// with its items ascending within a key, every item is in
  /// [0, num_items), and each directory matches its band.
  static StatusOr<MinHashLsh> FromTables(int32_t num_bands,
                                         int32_t rows_per_band,
                                         int32_t num_items, Tables tables);

  /// Returns the de-duplicated ids colliding with `signature`.
  std::vector<int32_t> Query(const std::vector<uint64_t>& signature) const;

  /// Like Query(), but keeps at most `limit` ids, preferring those that
  /// collide in more bands (a higher band count is a higher Jaccard
  /// estimate). Ties and the returned order are id-ascending, so the
  /// cut is deterministic. With `limit <= 0` or fewer collisions than
  /// `limit`, identical to Query(). Serving uses this to bound the
  /// re-rank cost of one query against a popular bucket.
  std::vector<int32_t> QueryTop(const std::vector<uint64_t>& signature,
                                int32_t limit) const;

  const Tables& tables() const { return tables_; }

 private:
  MinHashLsh(int32_t num_bands, int32_t rows_per_band, int32_t num_items,
             Tables tables);

  /// One entry per (band, item) collision with `signature`, unsorted.
  std::vector<int32_t> Collisions(const std::vector<uint64_t>& signature) const;

  int32_t num_bands_;
  int32_t rows_per_band_;
  int32_t num_items_;
  Tables tables_;
  /// One lookup per band over tables_ (valid across moves: see FlatArray).
  std::vector<KeyTable> bands_;
};

}  // namespace largeea

#endif  // LARGEEA_NAME_MINHASH_H_
