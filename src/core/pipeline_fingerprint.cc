#include "src/core/pipeline_fingerprint.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <string>

#include "src/rt/io_util.h"

namespace largeea {
namespace {

// Chains a child fingerprint off its parent(s): the parents' hashes are
// rendered into the child's ingredient string, so any upstream change
// ripples down the whole subgraph while siblings stay valid.
uint64_t Chain(uint64_t parent, const char* tag, const std::string& body) {
  char head[64];
  std::snprintf(head, sizeof(head), "%s<-%016" PRIx64 " ", tag, parent);
  return rt::Fnv1a64(std::string(head) + body);
}

std::string Printf(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf);
}

}  // namespace

PipelineFingerprints ComputePipelineFingerprints(
    const EaDataset& dataset, const LargeEaOptions& options) {
  const NameChannelOptions& n = options.name_channel;
  const SensOptions& sens = n.nff.sens;
  const StnsOptions& stns = n.nff.stns;
  const StructureChannelOptions& s = options.structure_channel;

  PipelineFingerprints fp;

  // Base: the dataset shape and seed splits every operator consumes.
  // Entity/triple counts + split sizes match the coverage of the legacy
  // global fingerprint — graph *content* is the caller's identity.
  fp.base = rt::Fnv1a64(Printf(
      "largeea-dag-base v1 kg=%d,%zu,%d,%zu train=%zu test=%zu",
      dataset.source.num_entities(), dataset.source.triples().size(),
      dataset.target.num_entities(), dataset.target.triples().size(),
      dataset.split.train.size(), dataset.split.test.size()));

  // SENS: everything ComputeSemanticSimilarity reads.
  fp.name_semantic = Chain(
      fp.base, "sem",
      Printf("enc=%d,%d,%.9g,%d,%d,%d,%" PRIu64 ",%.9g"
             " idf=%d topk=%d lsh=%d,%d,%d,%d,%" PRIu64 " metric=%d",
             sens.encoder.dim, sens.encoder.active_slots_per_token,
             sens.encoder.word_token_weight,
             sens.encoder.tokenizer.ngram_size,
             static_cast<int>(sens.encoder.tokenizer.include_words),
             static_cast<int>(sens.encoder.tokenizer.include_ngrams),
             sens.encoder.seed, sens.encoder.epsilon,
             static_cast<int>(sens.use_idf), sens.top_k,
             static_cast<int>(sens.use_lsh), sens.lsh.num_tables,
             sens.lsh.bits_per_table, sens.lsh.probe_radius, sens.lsh.seed,
             static_cast<int>(sens.metric)));

  // STNS: includes levenshtein_threshold, which the legacy global
  // fingerprint missed (it shapes which candidates survive scoring).
  fp.name_string = Chain(
      fp.base, "str",
      Printf("jac=%.9g lev=%.9g bands=%d,%d cap=%d tok=%d,%d,%d"
             " seed=%" PRIu64,
             stns.jaccard_threshold, stns.levenshtein_threshold,
             stns.num_bands, stns.rows_per_band, stns.max_entries_per_row,
             stns.tokenizer.ngram_size,
             static_cast<int>(stns.tokenizer.include_words),
             static_cast<int>(stns.tokenizer.include_ngrams), stns.seed));

  // M_n = M_se + γ·M_st.
  fp.name_fused = Chain(
      fp.name_semantic, "fuse",
      Printf("str=%016" PRIx64 " gamma=%.9g cap=%d", fp.name_string,
             n.nff.string_weight, n.nff.max_entries_per_row));

  // Pseudo seeds. With augmentation off, the artifact is an empty list
  // whatever M_n looks like, so the fingerprint collapses to a constant
  // over base — a fused-weight tweak then dirties M_n but not ψ'_p.
  fp.name_pseudo_seeds =
      n.enable_augmentation
          ? Chain(fp.name_fused, "aug",
                  Printf("margin=%.9g", n.augmentation_margin))
          : Chain(fp.base, "aug", "off");

  // ψ' = train seeds + pseudo seeds. Only real (non-empty) pseudo-seed
  // inputs tie the downstream graph to the name channel: with the
  // channel ablated or augmentation off, ψ' is the train split alone.
  fp.effective_seeds =
      (options.use_name_channel && n.enable_augmentation)
          ? Chain(fp.name_pseudo_seeds, "seeds", "train+pseudo")
          : Chain(fp.base, "seeds", "train-only");

  fp.partition = Chain(
      fp.effective_seeds, "part",
      Printf("strategy=%d k=%d ov=%d metis=%" PRId64 ",%d,%d,%d,%d,%" PRIu64
             " vps=%" PRIu64,
             static_cast<int>(s.strategy), s.num_batches, s.overlap_degree,
             s.metis_cps.high_weight, s.metis_cps.hubs_per_group,
             static_cast<int>(s.metis_cps.enable_phase1),
             static_cast<int>(s.metis_cps.enable_phase2),
             s.metis_cps.max_attempts, s.metis_cps.seed, s.vps.seed));

  // Batch blocks are saved *pre*-CSLS, so apply_csls is deliberately
  // absent here (it lives in `fused`): toggling CSLS re-merges without
  // retraining a single batch.
  fp.batch = Chain(
      fp.partition, "batch",
      Printf("model=%d topk=%d seed=%" PRIu64
             " train=%d,%d,%.9g,%.9g,%d,%d,%d,%" PRIu64,
             static_cast<int>(s.model), s.top_k, s.seed, s.train.epochs,
             s.train.dim, s.train.learning_rate, s.train.margin,
             s.train.negatives_per_seed, s.train.hard_negative_refresh,
             s.train.hard_negative_pool, s.train.seed));

  // M = M_s + M_n: both channels' artifacts plus every fusion knob.
  fp.fused = Chain(
      fp.batch, "final",
      Printf("name=%016" PRIx64 " channels=%d,%d,%d csls=%d"
             " fuse=%d,%.9g,%.9g",
             fp.name_fused, static_cast<int>(options.use_name_channel),
             static_cast<int>(options.use_structure_channel),
             static_cast<int>(options.fuse_name_similarity),
             static_cast<int>(s.apply_csls), options.fused_top_k,
             options.structure_weight, options.name_weight));

  return fp;
}

void InstallPipelineFingerprints(rt::CheckpointManager& checkpoint,
                                 const PipelineFingerprints& fingerprints) {
  checkpoint.SetKindFingerprint("name_semantic", fingerprints.name_semantic);
  checkpoint.SetKindFingerprint("name_string", fingerprints.name_string);
  checkpoint.SetKindFingerprint("name_fused", fingerprints.name_fused);
  checkpoint.SetKindFingerprint("name_pseudo_seeds",
                                fingerprints.name_pseudo_seeds);
  checkpoint.SetKindFingerprint("partition", fingerprints.partition);
  checkpoint.SetKindFingerprint("batch_", fingerprints.batch);
  checkpoint.SetKindFingerprint("fused", fingerprints.fused);
}

rt::CheckpointManager MakePipelineCheckpointManager(
    const EaDataset& dataset, const LargeEaOptions& options,
    const std::string& dir, bool resume) {
  const PipelineFingerprints fingerprints =
      ComputePipelineFingerprints(dataset, options);
  rt::CheckpointManager checkpoint(dir, fingerprints.base, resume);
  InstallPipelineFingerprints(checkpoint, fingerprints);
  return checkpoint;
}

}  // namespace largeea
