#include "src/shard/orchestrator.h"

#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

#include "src/core/structure_channel.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rt/checkpoint.h"
#include "src/rt/fault_injection.h"
#include "src/shard/heartbeat.h"
#include "src/shard/shard_plan.h"
#include "src/shard/subprocess.h"

namespace largeea::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// One supervised shard's lifecycle.
struct ShardState {
  enum class Phase { kPending, kRunning, kDone, kDegraded };
  Phase phase = Phase::kPending;
  std::vector<size_t> batches;
  int32_t attempts = 0;  ///< spawns so far (first attempt included)
  pid_t pid = -1;
  Clock::time_point spawn_time;
  Clock::time_point earliest_spawn;  ///< backoff gate for the next try
  Clock::time_point last_progress;
  std::string heartbeat_file;
  std::optional<HeartbeatMonitor> monitor;
};

std::string ShardTracePath(const std::string& dir, int32_t shard) {
  return dir + "/worker-" + std::to_string(shard) + "-trace.json";
}

/// Fresh (non-resume) sharded runs own the checkpoint directory: stale
/// artifacts from an earlier run would make the pre-spawn completeness
/// check skip shards against data the user asked to recompute.
void WipeCheckpoints(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.substr(name.size() - 5) == ".ckpt") {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

/// Phase B: spawns one supervised worker per incomplete, non-empty
/// shard of `batches` and returns once every shard is done or degraded.
Status SuperviseWorkers(const MiniBatchSet& batches,
                        rt::CheckpointManager& checkpoint,
                        const ShardOptions& shards, const std::string& dir,
                        ShardRunStats& stats) {
  const ShardPlan plan = PlanShards(batches, shards.num_shards);
  std::vector<ShardState> states(
      static_cast<size_t>(shards.num_shards));
  int32_t open_shards = 0;
  for (int32_t i = 0; i < shards.num_shards; ++i) {
    ShardState& s = states[static_cast<size_t>(i)];
    s.batches = plan.batches_of[static_cast<size_t>(i)];
    s.heartbeat_file = dir + "/hb-worker-" + std::to_string(i) + ".txt";
    if (s.batches.empty() || ShardComplete(checkpoint, s.batches)) {
      s.phase = ShardState::Phase::kDone;
      if (!s.batches.empty()) {
        ++stats.shards_resumed;
        LARGEEA_LOG_INFO("shard %d: all %zu batch artifact(s) already "
                         "present, not spawning a worker",
                         i, s.batches.size());
      }
    } else {
      ++open_shards;
    }
  }
  const auto deadline =
      std::chrono::seconds(std::max<int32_t>(shards.shard_deadline_s, 0));
  const auto hb_timeout =
      std::chrono::milliseconds(shards.heartbeat_timeout_ms);

  auto classify_failure = [&](int32_t i, ShardState& s,
                              const std::string& why) {
    LARGEEA_LOG_WARN("shard %d attempt %d failed: %s", i, s.attempts,
                     why.c_str());
    s.pid = -1;
    s.monitor.reset();
    // A worker can die between finishing its last batch and exiting
    // cleanly (killed while hung in finalize, SIGTERM during teardown).
    // The artifacts are the contract, not the exit code: if they all
    // load, the shard is done and respawning would only retrain work
    // the merge can already use.
    if (ShardComplete(checkpoint, s.batches)) {
      s.phase = ShardState::Phase::kDone;
      --open_shards;
      LARGEEA_LOG_INFO("shard %d: worker died but every batch artifact is "
                       "loadable; accepting the shard as complete",
                       i);
      return;
    }
    if (s.attempts > shards.max_shard_retries) {
      s.phase = ShardState::Phase::kDegraded;
      ++stats.shards_degraded;
      --open_shards;
      LARGEEA_LOG_ERROR(
          "shard %d: out of retries after %d attempt(s); its %zu batch(es) "
          "degrade to the name channel",
          i, s.attempts, s.batches.size());
    } else {
      s.phase = ShardState::Phase::kPending;
      const int64_t backoff_ms =
          static_cast<int64_t>(shards.retry_backoff_ms)
          << (s.attempts - 1);
      s.earliest_spawn =
          Clock::now() + std::chrono::milliseconds(backoff_ms);
      ++stats.workers_retried;
    }
  };

  while (open_shards > 0) {
    const auto now = Clock::now();
    for (int32_t i = 0; i < shards.num_shards; ++i) {
      ShardState& s = states[static_cast<size_t>(i)];
      if (s.phase == ShardState::Phase::kPending && now >= s.earliest_spawn) {
        std::vector<std::string> argv = shards.worker_command;
        argv.push_back("--shard-worker=" + std::to_string(i));
        argv.push_back("--shards=" + std::to_string(shards.num_shards));
        argv.push_back("--checkpoint-dir=" + dir);
        argv.push_back("--resume=true");
        argv.push_back("--shard-heartbeat-file=" + s.heartbeat_file);
        argv.push_back("--shard-heartbeat-ms=" +
                       std::to_string(shards.heartbeat_interval_ms));
        if (shards.capture_worker_traces) {
          argv.push_back("--trace-out=" + ShardTracePath(dir, i));
        }
        const std::string log_path = dir + "/worker-" + std::to_string(i) +
                                     "-attempt-" +
                                     std::to_string(s.attempts + 1) + ".log";
        // A fresh monitor per attempt: the heartbeat baseline must not
        // carry over, or a respawn writing the same first beat as its
        // predecessor would look stalled.
        std::error_code ec;
        std::filesystem::remove(s.heartbeat_file, ec);
        auto spawned = SpawnProcess(argv, shards.worker_env, log_path);
        if (!spawned.ok()) {
          ++s.attempts;
          classify_failure(i, s, spawned.status().message());
          continue;
        }
        s.pid = spawned.value();
        s.phase = ShardState::Phase::kRunning;
        ++s.attempts;
        s.spawn_time = now;
        s.last_progress = now;
        s.monitor.emplace(s.heartbeat_file);
        ++stats.workers_launched;
        LARGEEA_LOG_INFO("shard %d attempt %d: spawned pid %d (%zu batches)",
                         i, s.attempts, static_cast<int>(s.pid),
                         s.batches.size());
        continue;
      }
      if (s.phase != ShardState::Phase::kRunning) continue;

      const ProcessStatus ps = PollProcess(s.pid);
      if (!ps.running()) {
        if (ps.succeeded()) {
          // Exit 0 is a claim, not proof: verify the artifacts load.
          if (ShardComplete(checkpoint, s.batches)) {
            s.phase = ShardState::Phase::kDone;
            s.pid = -1;
            s.monitor.reset();
            --open_shards;
            LARGEEA_LOG_INFO("shard %d: complete after %d attempt(s)", i,
                             s.attempts);
          } else {
            classify_failure(i, s, "exited 0 but batch artifacts missing "
                                   "or unloadable");
          }
        } else if (ps.state == ProcessStatus::State::kSignaled) {
          classify_failure(i, s,
                           "killed by signal " +
                               std::to_string(ps.term_signal));
        } else {
          classify_failure(i, s, "exit code " +
                                     std::to_string(ps.exit_code));
        }
        continue;
      }

      if (s.monitor && s.monitor->Poll()) s.last_progress = Clock::now();
      const auto current = Clock::now();
      if (deadline.count() > 0 && current - s.spawn_time > deadline) {
        KillProcess(s.pid);
        WaitProcess(s.pid);
        ++stats.workers_killed_deadline;
        classify_failure(i, s, "over wall-clock deadline");
        continue;
      }
      if (hb_timeout.count() > 0 && current - s.last_progress > hb_timeout) {
        // Content-change detection on our own clock: a SIGSTOPped or
        // livelocked worker stops rewriting the file, and no amount of
        // clock skew between processes can fake progress.
        KillProcess(s.pid);
        WaitProcess(s.pid);
        ++stats.workers_killed_hung;
        classify_failure(i, s, "heartbeat stale (hung)");
        continue;
      }
    }
    if (open_shards > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(shards.poll_interval_ms));
    }
  }

  if (stats.shards_degraded > 0 && !shards.degrade_failed_shards) {
    return UnavailableError(
        std::to_string(stats.shards_degraded) +
        " shard(s) failed after retries and degradation is disabled");
  }
  if (shards.capture_worker_traces) {
    for (int32_t i = 0; i < shards.num_shards; ++i) {
      if (!states[static_cast<size_t>(i)].batches.empty()) {
        stats.worker_trace_files.push_back(ShardTracePath(dir, i));
      }
    }
  }
  return OkStatus();
}

}  // namespace

StatusOr<LargeEaResult> RunShardedLargeEa(const EaDataset& dataset,
                                          const LargeEaOptions& options,
                                          const ShardOptions& shards,
                                          ShardRunStats* stats_out) {
  if (shards.num_shards <= 0) return RunLargeEa(dataset, options);
  const std::string& dir = options.fault_tolerance.checkpoint_dir;
  if (dir.empty()) {
    return InvalidArgumentError("sharded execution requires --checkpoint-dir "
                                "(workers hand their blocks to the merge "
                                "through it)");
  }
  if (shards.worker_command.empty()) {
    return InvalidArgumentError("sharded execution requires a worker command");
  }

  ShardRunStats stats;
  stats.num_shards = shards.num_shards;
  obs::Span span("shard/orchestrator");
  span.AddAttr("shards", static_cast<int64_t>(shards.num_shards));

  if (!options.fault_tolerance.resume) WipeCheckpoints(dir);

  // The structure_train node's sharded policy. The pipeline has already
  // checkpointed the partition the workers load; the trainer supervises
  // them (phase B), then merges their blocks in merge-only mode (phase
  // C): every present batch artifact loads at the in-order merge cursor
  // exactly as a local run's would, and batches a degraded shard never
  // produced are classified failed-on-load and dropped with the counted
  // degradation (the name channel then covers those pairs).
  const StructureTrainer train_sharded =
      [&](const KnowledgeGraph& source, const KnowledgeGraph& target,
          MiniBatchSet batches, const StructureChannelOptions& structure,
          rt::CheckpointManager* checkpoint)
      -> StatusOr<StructureChannelResult> {
    LARGEEA_RETURN_IF_ERROR(
        SuperviseWorkers(batches, *checkpoint, shards, dir, stats));
    LARGEEA_INJECT_FAULT("shard.orchestrator.merge");
    StructureChannelOptions merge = structure;
    merge.resume_missing_batches_as_failed = true;
    merge.drop_failed_batches = shards.degrade_failed_shards;
    return TrainStructureChannel(source, target, std::move(batches), merge,
                                 checkpoint);
  };

  // Resume is forced on, as in every worker's manager: a fresh run has
  // just wiped the directory, and the supervision loop must see the
  // artifacts the workers write.
  LargeEaOptions pipeline = options;
  pipeline.fault_tolerance.resume = true;
  auto result = RunLargeEa(dataset, pipeline, train_sharded);
  if (!result.ok()) {
    return result.status().WithContext("shard orchestrator");
  }

  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("shard.launched").Add(stats.workers_launched);
  registry.GetCounter("shard.retried").Add(stats.workers_retried);
  registry.GetCounter("shard.degraded").Add(stats.shards_degraded);
  registry.GetCounter("shard.resumed").Add(stats.shards_resumed);
  registry.GetCounter("shard.killed_hung").Add(stats.workers_killed_hung);
  registry.GetCounter("shard.killed_deadline")
      .Add(stats.workers_killed_deadline);
  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

}  // namespace largeea::shard
