#include "src/rt/checkpoint.h"

#include <filesystem>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/rt/artifact.h"
#include "src/rt/fault_injection.h"

namespace largeea::rt {
namespace {

// Entity-pair lists: a counted array of (i32 source, i32 target).
StatusOr<EntityPairList> ReadPairs(BinaryReader& r) {
  EntityPairList pairs;
  LARGEEA_RETURN_IF_ERROR(r.Array(&pairs));
  return pairs;
}

// Mini-batch sets: a u64 batch count, then per batch its source ids,
// target ids and seed pairs, each a counted array.
void WriteBatches(const MiniBatchSet& batches, BinaryWriter& w) {
  w.U64(batches.size());
  for (const MiniBatch& b : batches) {
    w.Array(b.source_entities);
    w.Array(b.target_entities);
    w.Array(b.seeds);
  }
}

StatusOr<MiniBatchSet> ReadBatches(BinaryReader& r) {
  uint64_t count = 0;
  // A batch costs at least its three 8-byte counts. The set grows batch
  // by batch rather than being sized from the count, so a damaged count
  // fails at the first missing batch without allocating for the rest.
  LARGEEA_RETURN_IF_ERROR(r.Count(&count, 3 * sizeof(uint64_t)));
  MiniBatchSet batches;
  for (uint64_t i = 0; i < count; ++i) {
    MiniBatch& b = batches.emplace_back();
    LARGEEA_RETURN_IF_ERROR(r.Array(&b.source_entities));
    LARGEEA_RETURN_IF_ERROR(r.Array(&b.target_entities));
    LARGEEA_RETURN_IF_ERROR(r.Array(&b.seeds));
  }
  return batches;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir,
                                     uint64_t config_fingerprint,
                                     bool resume)
    : dir_(std::move(dir)), fingerprint_(config_fingerprint),
      resume_(resume) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      LARGEEA_LOG_WARN("checkpoint: cannot create directory '%s': %s",
                       dir_.c_str(), ec.message().c_str());
    }
  }
}

std::string CheckpointManager::PathFor(std::string_view kind) const {
  return dir_ + "/" + std::string(kind) + ".ckpt";
}

void CheckpointManager::SetKindFingerprint(std::string kind_prefix,
                                           uint64_t fingerprint) {
  kind_fingerprints_.emplace_back(std::move(kind_prefix), fingerprint);
}

uint64_t CheckpointManager::FingerprintFor(std::string_view kind) const {
  uint64_t best = fingerprint_;
  size_t best_len = 0;
  bool overridden = false;
  for (const auto& [prefix, fingerprint] : kind_fingerprints_) {
    if (kind.substr(0, prefix.size()) == prefix &&
        (!overridden || prefix.size() > best_len)) {
      best = fingerprint;
      best_len = prefix.size();
      overridden = true;
    }
  }
  return best;
}

Status CheckpointManager::SavePayload(std::string_view kind,
                                      std::string_view payload) {
  auto& registry = obs::MetricsRegistry::Get();
  const auto fail = [&](Status status) {
    registry.GetCounter("checkpoint.write_failures").Increment();
    LARGEEA_LOG_WARN("checkpoint: failed to save '%s': %s",
                     std::string(kind).c_str(), status.ToString().c_str());
    return status;
  };
  Status injected = [&]() -> Status {
    LARGEEA_INJECT_FAULT("checkpoint.write");
    return OkStatus();
  }();
  if (!injected.ok()) return fail(std::move(injected));
  Status written = WriteArtifact(PathFor(kind), kCheckpointFamily, kind,
                                 FingerprintFor(kind), payload);
  if (!written.ok()) return fail(std::move(written));
  registry.GetCounter("checkpoint.writes").Increment();
  return OkStatus();
}

template <typename T>
StatusOr<T> CheckpointManager::LoadDecoded(
    std::string_view kind, StatusOr<T> (*decode)(BinaryReader&)) {
  if (!enabled()) {
    return NotFoundError("checkpointing disabled");
  }
  const std::string path = PathFor(kind);
  auto artifact =
      ReadArtifact(path, kCheckpointFamily, kind, FingerprintFor(kind));
  if (!artifact.ok()) return MaybeQuarantine(kind, artifact.status());
  BinaryReader r(artifact->payload());
  StatusOr<T> value = decode(r);
  if (value.ok() && !r.exhausted()) {
    value = DataLossError(std::to_string(r.remaining()) +
                          " trailing bytes after the payload");
  }
  if (!value.ok()) {
    // A payload that passed the checksum but fails to decode means the
    // writer and reader disagree — treat as corruption, not bad input.
    return MaybeQuarantine(
        kind, DataLossError("'" + path + "': " + value.status().message()));
  }
  obs::MetricsRegistry::Get().GetCounter("checkpoint.loads").Increment();
  return value;
}

Status CheckpointManager::SaveMatrix(std::string_view kind,
                                     const SparseSimMatrix& m) {
  if (!enabled()) return OkStatus();
  BinaryWriter w;
  m.Serialize(w);
  return SavePayload(kind, w.bytes());
}

Status CheckpointManager::SavePairs(std::string_view kind,
                                    const EntityPairList& pairs) {
  if (!enabled()) return OkStatus();
  BinaryWriter w;
  w.Array(pairs);
  return SavePayload(kind, w.bytes());
}

Status CheckpointManager::SaveBatches(std::string_view kind,
                                      const MiniBatchSet& batches) {
  if (!enabled()) return OkStatus();
  BinaryWriter w;
  WriteBatches(batches, w);
  return SavePayload(kind, w.bytes());
}

Status CheckpointManager::MaybeQuarantine(std::string_view kind,
                                          Status status) {
  if (status.code() != StatusCode::kDataLoss) return status;
  const std::string path = PathFor(kind);
  const std::string quarantine = path + ".corrupt";
  std::error_code ec;
  std::filesystem::rename(path, quarantine, ec);
  if (ec) {
    // The rename is best-effort: the load already failed cleanly and the
    // caller will recompute either way.
    LARGEEA_LOG_WARN("checkpoint: cannot quarantine '%s': %s", path.c_str(),
                     ec.message().c_str());
    return status;
  }
  obs::MetricsRegistry::Get().GetCounter("checkpoint.quarantined")
      .Increment();
  LARGEEA_LOG_WARN("checkpoint: quarantined corrupt artifact '%s' -> '%s'",
                   path.c_str(), quarantine.c_str());
  return status.WithContext("quarantined to '" + quarantine + "'");
}

StatusOr<SparseSimMatrix> CheckpointManager::LoadMatrix(
    std::string_view kind) {
  return LoadDecoded<SparseSimMatrix>(kind, SparseSimMatrix::Deserialize);
}

StatusOr<EntityPairList> CheckpointManager::LoadPairs(std::string_view kind) {
  return LoadDecoded<EntityPairList>(kind, ReadPairs);
}

StatusOr<MiniBatchSet> CheckpointManager::LoadBatches(std::string_view kind) {
  return LoadDecoded<MiniBatchSet>(kind, ReadBatches);
}

}  // namespace largeea::rt
