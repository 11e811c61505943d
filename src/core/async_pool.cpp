#include "core/async_pool.h"

#include <cmath>
#include <stdexcept>

#include "data/partition.h"
#include "obs/obs.h"

namespace rpol::core {

AsyncMiningPool::AsyncMiningPool(AsyncPoolConfig config, nn::ModelFactory factory,
                                 const data::Dataset& train,
                                 data::DatasetView test,
                                 std::vector<AsyncWorkerSpec> workers)
    : config_(std::move(config)),
      factory_(std::move(factory)),
      test_(std::move(test)),
      workers_(std::move(workers)),
      manager_executor_(factory_, config_.hp),
      health_(static_cast<int>(config_.eviction_threshold), workers_.size()) {
  if (workers_.empty()) throw std::invalid_argument("async pool needs workers");
  if (config_.verify && config_.samples_q < 1) {
    throw std::invalid_argument("verification needs >= 1 sample");
  }
  for (const auto& w : workers_) {
    if (w.period < 1) throw std::invalid_argument("worker period must be >= 1");
  }
  partitions_ = data::shuffle_and_partition(
      train, static_cast<std::int64_t>(workers_.size()),
      derive_seed(config_.seed, 0xA57A));

  VerifierConfig vcfg;
  vcfg.samples_q = config_.samples_q;
  vcfg.beta = config_.beta;
  vcfg.sampling_seed = derive_seed(config_.seed, 0xA57B);
  verifier_ = std::make_unique<Verifier>(factory_, config_.hp, vcfg);

  const TrainState pristine = manager_executor_.save_state();
  global_model_ = pristine.model;
  fresh_optimizer_ = pristine.optimizer;

  // Every worker grabs the initial state at tick 0.
  jobs_.resize(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    jobs_[w].base = current_state();
    jobs_[w].nonce = derive_seed(config_.seed, 0xB000ULL + w);
    jobs_[w].started_at_version = 0;
    jobs_[w].finish_tick = workers_[w].period;
  }
}

TrainState AsyncMiningPool::current_state() const {
  return {global_model_, fresh_optimizer_};
}

AsyncRunReport AsyncMiningPool::run() {
  AsyncRunReport report;
  for (std::int64_t tick = 1; tick <= config_.ticks; ++tick) {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      InFlight& job = jobs_[w];
      if (health_.evicted(w) || job.finish_tick != tick) continue;

      // Each submission roots its own causal tree (async epochs have no
      // shared root); the verifier's re-execution spans link under it.
      obs::Span submission_span("submission", obs::TraceContext{},
                                static_cast<int>(w), tick);
      const std::uint64_t submission_start_ns = obs::now_ns();
      std::uint64_t submission_retrans = 0;

      // Submission transport under the fault plan: the worker retransmits
      // its trained update up to the retry budget; exhausting it loses this
      // cadence slot entirely (the manager never sees the trace).
      bool delivered = true;
      if (config_.fault_plan != nullptr) {
        fault::FaultInjector injector(
            *config_.fault_plan,
            static_cast<std::uint64_t>(tick) * 256ULL + w);
        delivered = false;
        for (int attempt = 0; attempt < config_.retry.max_attempts; ++attempt) {
          if (attempt > 0) {
            ++report.retransmissions;
            ++submission_retrans;
            obs::count("async.retransmission", 1);
          }
          const fault::Delivery d = injector.attempt(/*kCommitment*/ 2);
          if (d.status == fault::DeliveryStatus::kDelivered && !d.corrupted) {
            delivered = true;
            break;
          }
        }
      }

      // The worker finishes its local epoch (trained from its grabbed base).
      EpochContext ctx;
      ctx.epoch = tick;
      ctx.nonce = job.nonce;
      ctx.initial = job.base;
      ctx.dataset = &partitions_[w];
      StepExecutor worker_executor(factory_, config_.hp);
      sim::DeviceExecution device(
          workers_[w].device,
          derive_seed(config_.seed,
                      0xC000ULL + static_cast<std::uint64_t>(tick) * 256ULL + w));
      const EpochTrace trace =
          workers_[w].policy->produce_trace(worker_executor, ctx, device);
      // Checkpoint store lives until this submission is resolved; the
      // session's working state (grabbed base copy + the transient
      // executor's model+optimizer image) rides along with it.
      obs::MemScope trace_mem(obs::MemTag::kCheckpoint,
                              trace.storage_bytes() +
                                  ctx.initial.byte_size() * 2);

      AsyncSubmission submission;
      submission.tick = tick;
      submission.worker = w;
      submission.staleness = global_version_ - job.started_at_version;

      bool accepted = delivered;
      if (delivered && config_.verify) {
        sim::DeviceExecution manager_device(
            sim::device_g3090(),
            derive_seed(config_.seed,
                        0xD000ULL + static_cast<std::uint64_t>(tick) * 256ULL + w));
        accepted = verifier_
                       ->verify(commit_v1(trace), trace, ctx,
                                hash_state(job.base), manager_device,
                                submission_span.context())
                       .accepted;
      }
      submission.accepted = accepted;
      submission.delivered = delivered;
      report.submissions.push_back(submission);
      submission_span.attr("staleness", submission.staleness);
      submission_span.attr("accepted", accepted);
      submission_span.attr("delivered", delivered);
      obs::count(!delivered ? "async.lost"
                            : (accepted ? "async.applied" : "async.rejected"),
                 1);

      if (accepted) {
        const double discount = config_.eta *
                                std::pow(config_.staleness_discount,
                                         static_cast<double>(submission.staleness));
        const std::vector<float>& final_model = trace.checkpoints.back().model;
        for (std::size_t d = 0; d < global_model_.size(); ++d) {
          global_model_[d] += static_cast<float>(discount) *
                              (final_model[d] - job.base.model[d]);
        }
        ++global_version_;
        ++report.applied;
      } else if (delivered) {
        ++report.rejected;
      } else {
        ++report.lost;
      }

      // Graceful degradation via the health registry. Lost submissions
      // (delivered == false, never verified) and verify-rejected ones burn
      // SEPARATE consecutive-strike budgets — obs/health.h splits the
      // accounting so a lossy link is not mistaken for a byzantine worker;
      // eviction needs threshold consecutive strikes of one kind. The same
      // outcome feeds the windowed per-worker score (latency and retries
      // are report-only).
      obs::HealthOutcome outcome;
      outcome.participated = delivered;
      outcome.accepted = accepted;
      outcome.retransmissions = submission_retrans;
      outcome.latency_ns = obs::now_ns() - submission_start_ns;
      obs::observe("async.submission_latency_ns", outcome.latency_ns);
      if (health_.record(w, outcome)) {
        obs::count("async.eviction", 1);
        continue;  // never re-arms; finish_tick stays in the past
      }

      // The worker immediately grabs the fresh state and starts over.
      job.base = current_state();
      job.nonce = derive_seed(config_.seed,
                              0xE000ULL + static_cast<std::uint64_t>(tick) * 256ULL + w);
      job.started_at_version = global_version_;
      job.finish_tick = tick + workers_[w].period;
    }
    obs::Span eval_span("evaluate", obs::TraceContext{}, /*worker=*/-1, tick);
    manager_executor_.load_state(current_state());
    report.accuracy_curve.push_back(manager_executor_.evaluate(test_));
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    report.evicted_workers += health_.evicted(w) ? 1 : 0;
  }
  report.final_accuracy =
      report.accuracy_curve.empty() ? 0.0 : report.accuracy_curve.back();
  return report;
}

}  // namespace rpol::core
