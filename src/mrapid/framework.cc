#include "mrapid/framework.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "mapreduce/split.h"
#include "sim/trace.h"

namespace mrapid::core {

using mr::ExecutionMode;
using mr::JobResult;
using mr::JobSpec;

EstimatorDefaults estimator_defaults_for(const cluster::Cluster& cluster,
                                         const yarn::YarnConfig& yarn_config) {
  EstimatorDefaults defaults;
  defaults.t_l = yarn_config.container_launch.as_seconds();
  // Assume a homogeneous worker fleet (true of the paper's clusters).
  const cluster::NodeSpec& spec = cluster.node(cluster.workers().front()).spec();
  defaults.d_i = spec.disk_write.bytes_per_sec;
  defaults.d_o = spec.disk_read.bytes_per_sec;
  defaults.b_i = spec.nic.bytes_per_sec;
  return defaults;
}

MRapidFramework::MRapidFramework(cluster::Cluster& cluster, hdfs::Hdfs& hdfs,
                                 yarn::ResourceManager& rm, mr::JobClient& client,
                                 FrameworkOptions options)
    : cluster_(cluster),
      hdfs_(hdfs),
      rm_(rm),
      client_(client),
      sim_(cluster.simulation()),
      options_(options),
      pool_(cluster, rm, options.pool_size),
      decision_maker_(history_, options.estimator, options.confidence_margin) {
  pool_.set_slot_lost([this](int index) { on_slot_lost(index); });
  pool_.set_slot_warm([this] { pump_queue(); });
  // Eq. 3's queue-delay term comes straight from the scheduler's own
  // waiting-time estimator (null for a scheduler that keeps none,
  // which preserves the structural t_w = 0).
  decision_maker_.set_wait_estimator(rm_.scheduler().wait_estimator());
}

void MRapidFramework::start(std::function<void()> on_ready) {
  if (!options_.use_pool) {
    // Ablation: no reserved AMs; jobs go through the standard path.
    sim_.schedule_now(std::move(on_ready), "mrapid:no-pool");
    return;
  }
  pool_.start(std::move(on_ready));
}

DecisionContext MRapidFramework::make_context(const JobSpec& spec) const {
  DecisionContext context;
  const auto splits = mr::compute_splits(hdfs_, spec.input_paths);
  context.n_m = static_cast<int>(splits.size());
  if (!splits.empty()) {
    double total = 0;
    for (const auto& split : splits) total += static_cast<double>(split.length);
    context.s_i_now = total / static_cast<double>(splits.size());
  }

  // n^c: task containers the cluster can hold at once (vcores and
  // memory both bind), minus the AM slots the pool pins. Dead or
  // blacklisted nodes contribute nothing — the decision maker sees the
  // degraded capacity, not the nominal one.
  const auto& yarn_config = rm_.config();
  std::int64_t capacity = 0;
  for (cluster::NodeId worker : cluster_.workers()) {
    const yarn::NodeState* state = rm_.node_state(worker);
    if (state != nullptr && !state->schedulable()) continue;
    const cluster::NodeSpec& node = cluster_.node(worker).spec();
    const std::int64_t vcores =
        static_cast<std::int64_t>(node.cores) * yarn_config.containers_per_core;
    const std::int64_t by_memory = std::max<std::int64_t>(
        0, (node.memory / (1024 * 1024) - yarn_config.nm_memory_reserve_mb) /
               std::max<std::int64_t>(1, yarn_config.task_container.memory_mb));
    capacity += std::min(vcores, by_memory);
  }
  if (options_.use_pool) capacity -= pool_.size();
  context.n_c = static_cast<int>(std::max<std::int64_t>(1, capacity));

  // n_u^m = n^c(vcores of the AM node) * n^m_c.
  int max_cores = 1;
  for (cluster::NodeId worker : cluster_.workers()) {
    const yarn::NodeState* state = rm_.node_state(worker);
    if (state != nullptr && !state->schedulable()) continue;
    max_cores = std::max(max_cores, cluster_.node(worker).spec().cores);
  }
  const int maps_per_core = std::max(1, spec.uber.maps_per_core);
  context.n_u_m = max_cores * maps_per_core;
  return context;
}

void MRapidFramework::notify_client(sim::SimTime submit_time, CompletionCallback cb,
                                    JobResult result) {
  if (options_.push_completion) {
    // Proxy pushes a completion RPC to the client.
    sim_.schedule_after(options_.proxy_rpc,
                        [this, cb = std::move(cb), result = std::move(result)]() mutable {
                          result.profile.client_done_time = sim_.now();
                          cb(result);
                        },
                        "mrapid:push-complete");
    return;
  }
  // Ablation: the client discovers completion at its next status poll.
  const std::int64_t poll_us = client_.config().client_poll.as_micros();
  const std::int64_t elapsed_us = (sim_.now() - submit_time).as_micros();
  const std::int64_t aligned_us = ((elapsed_us + poll_us - 1) / poll_us) * poll_us;
  const sim::SimTime seen = submit_time + sim::SimDuration::micros(aligned_us);
  sim_.schedule_at(seen, [seen, cb = std::move(cb), result = std::move(result)]() mutable {
    result.profile.client_done_time = seen;
    cb(result);
  }, "mrapid:poll-complete");
}

void MRapidFramework::pump_queue() {
  // Strict FIFO; the head only dispatches once *enough* slots for it
  // are free (a speculative pair needs two).
  while (!waiting_jobs_.empty() &&
         pool_.free_slots() >= waiting_jobs_.front().slots_needed) {
    auto job = std::move(waiting_jobs_.front());
    waiting_jobs_.pop_front();
    job.run();
  }
}

void MRapidFramework::run_on_slot(const JobSpec& spec, ExecutionMode mode,
                                  const AmPool::Slot& slot, sim::SimTime submit_time,
                                  CompletionCallback on_complete, bool record_winner,
                                  int resubmits) {
  JobSpec adjusted = spec;
  adjusted.output_path += "." + std::string(mr::mode_name(mode)) + "." +
                          std::to_string(sim_.now().as_micros());

  mr::AmBase& am = client_.make_app_master(
      adjusted, mode, [this, slot](const JobResult& result) {
        ActiveJob job = std::move(active_jobs_.at(slot.index));
        active_jobs_.erase(slot.index);
        history_.record_run(job.am->spec().logic->signature(), measure(*job.am, sim_.now()),
                            job.record_winner);
        JobResult adjusted_result = result;
        adjusted_result.profile.am_restarts += job.resubmits;
        pool_.release(slot.index);
        pump_queue();
        notify_client(job.submit_time, std::move(job.on_complete), std::move(adjusted_result));
      });
  // Everything a slot loss needs to resubmit the job lives in the
  // ActiveJob record; exactly one of the completion callback and the
  // loss path consumes it (each moves it out of active_jobs_ first).
  active_jobs_[slot.index] =
      ActiveJob{.spec = spec, .mode = mode, .submit_time = submit_time,
                .on_complete = std::move(on_complete), .am = &am, .resubmits = resubmits,
                .record_winner = record_winner};
  // Seed the scheduler's shadow schedules with this app's expected
  // per-container runtime (launch + historical map compute, scaled to
  // the job at hand) — backfilling is only as good as these hints.
  const HistoryRecord* record = history_.find(spec.logic->signature());
  if (record != nullptr && record->map_compute_seconds.count() > 0) {
    double t_m = record->map_compute_seconds.mean();
    const DecisionContext context = make_context(spec);
    const double s_i = record->map_input_bytes.mean();
    if (context.s_i_now > 0.0 && s_i > 0.0) t_m *= context.s_i_now / s_i;
    rm_.scheduler().set_app_runtime_hint(slot.app, options_.estimator.t_l + t_m);
  }
  am.set_managed_by_pool(true);
  am.set_app_id(slot.app);
  am.set_submit_time(submit_time);
  // AMSlave handoff: the proxy RPCs the job description to the warm AM.
  // The slot can die during the handoff — an abandoned AM never starts.
  sim_.schedule_after(options_.proxy_rpc + options_.am_job_init,
                      [am = &am, container = slot.container] {
                        if (!am->was_killed()) am->start(container);
                      },
                      "mrapid:am-handoff");
}

void MRapidFramework::on_slot_lost(int index) {
  auto it = active_jobs_.find(index);
  if (it == active_jobs_.end()) return;  // idle slot, or a speculative race (see docs/FAULTS.md)
  ActiveJob job = std::move(it->second);
  active_jobs_.erase(it);
  job.am->abandon();
  if (job.resubmits >= options_.max_job_resubmits) {
    LOG_WARN("mrapid", "job %s lost its slot %d times; failing", job.spec.name.c_str(),
             job.resubmits + 1);
    JobResult result;
    result.succeeded = false;
    result.profile = job.am->live_profile();
    result.profile.am_restarts = job.resubmits;
    notify_client(job.submit_time, std::move(job.on_complete), std::move(result));
    return;
  }
  const int next = job.resubmits + 1;
  MRAPID_TRACE(sim_, sim::TraceCategory::kFault, "pool.resubmit",
               {"slot", index}, {"app", job.am->app_id()}, {"attempt", next});
  LOG_WARN("mrapid", "slot %d lost; resubmitting %s (attempt %d)", index,
           job.spec.name.c_str(), next + 1);
  waiting_jobs_.push_back({1, [this, job = std::move(job), next]() mutable {
    auto slot = pool_.acquire();
    assert(slot.has_value());
    run_on_slot(job.spec, job.mode, *slot, job.submit_time, std::move(job.on_complete),
                job.record_winner, next);
  }});
  pump_queue();
}

std::vector<yarn::Container> MRapidFramework::active_am_containers() const {
  std::vector<yarn::Container> out;
  for (const auto& [index, job] : active_jobs_) {
    if (!job.am->finished() && !job.am->was_killed()) {
      out.push_back(pool_.slot(index).container);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const yarn::Container& a, const yarn::Container& b) { return a.id < b.id; });
  return out;
}

void MRapidFramework::submit_in_mode(const JobSpec& spec, ExecutionMode mode,
                                     CompletionCallback on_complete) {
  const sim::SimTime submit_time = sim_.now();
  if (!options_.use_pool ||
      (mode == ExecutionMode::kHadoopDistributed || mode == ExecutionMode::kHadoopUber)) {
    // Baseline modes (and the no-pool ablation) use the standard path.
    client_.submit(spec, mode, std::move(on_complete));
    return;
  }
  // Step 1: job-id RPC + upload job files, then RPC the proxy.
  sim_.schedule_after(rm_.config().rpc_latency, [this, spec, mode, submit_time,
                                                 on_complete =
                                                     std::move(on_complete)]() mutable {
    const std::string staging =
        "/tmp/mrapid-staging/" + spec.name + "." + std::to_string(submit_time.as_micros());
    client_.upload_job_files(staging, cluster_.master(), [this, spec, mode, submit_time,
                                                          on_complete = std::move(
                                                              on_complete)]() mutable {
      sim_.schedule_after(options_.proxy_rpc, [this, spec, mode, submit_time,
                                               on_complete =
                                                   std::move(on_complete)]() mutable {
        auto dispatch = [this, spec, mode, submit_time,
                         on_complete = std::move(on_complete)]() mutable {
          auto slot = pool_.acquire();
          assert(slot.has_value());
          run_on_slot(spec, mode, *slot, submit_time, std::move(on_complete), true);
        };
        if (waiting_jobs_.empty() && pool_.free_slots() >= 1) {
          dispatch();
        } else {
          waiting_jobs_.push_back({1, std::move(dispatch)});
        }
      }, "mrapid:proxy-rpc");
    });
  }, "mrapid:submit");
}

void MRapidFramework::submit(const JobSpec& spec, CompletionCallback on_complete) {
  const sim::SimTime submit_time = sim_.now();
  assert(options_.use_pool && "auto mode requires the AM pool");
  sim_.schedule_after(rm_.config().rpc_latency, [this, spec, submit_time,
                                                 on_complete =
                                                     std::move(on_complete)]() mutable {
    const std::string staging =
        "/tmp/mrapid-staging/" + spec.name + "." + std::to_string(submit_time.as_micros());
    client_.upload_job_files(staging, cluster_.master(), [this, spec, submit_time,
                                                          on_complete = std::move(
                                                              on_complete)]() mutable {
      sim_.schedule_after(options_.proxy_rpc, [this, spec, submit_time,
                                               on_complete =
                                                   std::move(on_complete)]() mutable {
        // Step 2: pre-decision from execution history.
        const DecisionContext context = make_context(spec);
        const auto pre = decision_maker_.pre_decide(spec.logic->signature(), context);
        if (pre.has_value()) {
          LOG_INFO("mrapid", "pre-decision for %s: %s (t_u=%.1fs t_d=%.1fs)",
                   spec.name.c_str(), mr::mode_name(pre->winner), pre->t_u, pre->t_d);
          auto dispatch = [this, spec, mode = pre->winner, submit_time,
                           on_complete = std::move(on_complete)]() mutable {
            auto slot = pool_.acquire();
            assert(slot.has_value());
            run_on_slot(spec, mode, *slot, submit_time, std::move(on_complete), true);
          };
          if (waiting_jobs_.empty() && pool_.free_slots() >= 1) {
            dispatch();
          } else {
            waiting_jobs_.push_back({1, std::move(dispatch)});
          }
          return;
        }
        // Step 3: no clear answer -> speculative execution in both modes.
        auto dispatch = [this, spec, submit_time,
                         on_complete = std::move(on_complete)]() mutable {
          run_speculative(spec, submit_time, std::move(on_complete));
        };
        if (waiting_jobs_.empty() && pool_.free_slots() >= 2) {
          dispatch();
        } else {
          waiting_jobs_.push_back({2, std::move(dispatch)});
        }
      }, "mrapid:proxy-rpc");
    });
  }, "mrapid:submit");
}

void MRapidFramework::run_speculative(const JobSpec& spec, sim::SimTime submit_time,
                                      CompletionCallback on_complete) {
  auto d_slot = pool_.acquire();
  auto u_slot = pool_.acquire();
  if (!d_slot || !u_slot) {
    // Raced with another job; requeue with whatever freed up.
    if (d_slot) pool_.release(d_slot->index);
    if (u_slot) pool_.release(u_slot->index);
    waiting_jobs_.push_back({2, [this, spec, submit_time,
                                 cb = std::move(on_complete)]() mutable {
      run_speculative(spec, submit_time, std::move(cb));
    }});
    return;
  }
  SpeculativeRace* race = &races_.emplace_back(
      SpeculativeRace{.spec = spec, .submit_time = submit_time,
                      .on_complete = std::move(on_complete), .context = make_context(spec),
                      .d_slot = *d_slot, .u_slot = *u_slot});
  LOG_INFO("mrapid", "speculative launch of %s: D+ on slot %d, U+ on slot %d",
           spec.name.c_str(), race->d_slot.index, race->u_slot.index);

  auto launch = [this, race](ExecutionMode mode, const AmPool::Slot& slot) {
    mr::AmBase& am = client_.make_app_master(
        spec_copy(race->spec, mode), mode,
        [this, race, mode](const JobResult& result) { finish_race(*race, mode, result); });
    am.set_managed_by_pool(true);
    am.set_app_id(slot.app);
    am.set_submit_time(race->submit_time);
    sim_.schedule_after(options_.proxy_rpc,
                        [am = &am, container = slot.container] { am->start(container); },
                        "mrapid:am-handoff");
    return &am;
  };
  race->d_am = launch(ExecutionMode::kDPlus, race->d_slot);
  race->u_am = launch(ExecutionMode::kUPlus, race->u_slot);
  race->poll_event = sim_.schedule_after(options_.decision_poll,
                                         [this, race] { poll_race(*race); }, "mrapid:poll");
}

JobSpec MRapidFramework::spec_copy(const JobSpec& spec, ExecutionMode mode) {
  JobSpec adjusted = spec;
  adjusted.output_path += "." + std::string(mr::mode_name(mode)) + ".spec" +
                          std::to_string(sim_.now().as_micros());
  return adjusted;
}

void MRapidFramework::poll_race(SpeculativeRace& race) {
  race.poll_event = sim::EventId{};
  if (race.finished || race.decided) return;
  // Step 4/5: profile both attempts, judge when confident.
  const ModeMeasurement d = measure(*race.d_am, sim_.now());
  const ModeMeasurement u = measure(*race.u_am, sim_.now());
  const auto decision = decision_maker_.judge_live(d, u, race.context);
  if (decision.has_value()) {
    race.decided = true;
    const bool keep_d = decision->winner == ExecutionMode::kDPlus;
    mr::AmBase& loser_am = keep_d ? *race.u_am : *race.d_am;
    const auto& loser_slot = keep_d ? race.u_slot : race.d_slot;
    LOG_INFO("mrapid", "decision: %s wins (t_u=%.1fs t_d=%.1fs); killing %s",
             mr::mode_name(decision->winner), decision->t_u, decision->t_d,
             mr::mode_name(loser_am.mode()));
    // Record the loser's measurements before it dies — profile data is
    // valid either way.
    history_.record_run(race.spec.logic->signature(), measure(loser_am, sim_.now()), false);
    loser_am.kill();
    pool_.release(loser_slot.index);
    pump_queue();
    return;
  }
  race.poll_event = sim_.schedule_after(options_.decision_poll,
                                        [this, race = &race] { poll_race(*race); },
                                        "mrapid:poll");
}

void MRapidFramework::finish_race(SpeculativeRace& race, ExecutionMode winner,
                                  const JobResult& result) {
  if (race.finished) return;
  race.finished = true;
  if (race.poll_event.valid()) sim_.cancel(race.poll_event);

  const bool d_won = winner == ExecutionMode::kDPlus;
  mr::AmBase& winner_am = d_won ? *race.d_am : *race.u_am;
  mr::AmBase& loser_am = d_won ? *race.u_am : *race.d_am;
  const auto& winner_slot = d_won ? race.d_slot : race.u_slot;
  const auto& loser_slot = d_won ? race.u_slot : race.d_slot;

  history_.record_run(race.spec.logic->signature(), measure(winner_am, sim_.now()), true);
  if (!race.decided) {
    // The race ran to the finish line: kill the straggler now.
    history_.record_run(race.spec.logic->signature(), measure(loser_am, sim_.now()), false);
    loser_am.kill();
    pool_.release(loser_slot.index);
  }
  pool_.release(winner_slot.index);
  pump_queue();
  LOG_INFO("mrapid", "speculative %s finished; winner %s in %.2fs", race.spec.name.c_str(),
           mr::mode_name(winner), result.profile.elapsed_seconds());
  notify_client(race.submit_time, std::move(race.on_complete), result);
}

}  // namespace mrapid::core
