#include "harness/world.h"

#include <cassert>

#include "common/log.h"

namespace mrapid::harness {

const char* run_mode_name(RunMode mode) {
  switch (mode) {
    case RunMode::kHadoop: return "Hadoop";
    case RunMode::kUber: return "Uber";
    case RunMode::kDPlus: return "D+";
    case RunMode::kUPlus: return "U+";
    case RunMode::kMRapidAuto: return "MRapid";
    case RunMode::kSpark: return "Spark";
  }
  return "?";
}

bool is_mrapid_mode(RunMode mode) {
  return mode == RunMode::kDPlus || mode == RunMode::kUPlus || mode == RunMode::kMRapidAuto;
}

mr::ExecutionMode to_execution_mode(RunMode mode) {
  switch (mode) {
    case RunMode::kHadoop: return mr::ExecutionMode::kHadoopDistributed;
    case RunMode::kUber: return mr::ExecutionMode::kHadoopUber;
    case RunMode::kDPlus: return mr::ExecutionMode::kDPlus;
    case RunMode::kUPlus: return mr::ExecutionMode::kUPlus;
    case RunMode::kSpark: return mr::ExecutionMode::kSparkLite;
    case RunMode::kMRapidAuto: break;
  }
  assert(false && "kMRapidAuto has no single execution mode");
  return mr::ExecutionMode::kHadoopDistributed;
}

World::World(const WorldConfig& config, RunMode mode) : config_(config), mode_(mode) {
  if (config.log_level) {
    saved_log_threshold_ = Logger::set_thread_threshold(config.log_level);
  }
  sim_ = std::make_unique<sim::Simulation>(config.seed);
  sim_->set_timer_batching(config.yarn.heartbeat_batching);
  cluster_ = std::make_unique<cluster::Cluster>(*sim_, config.cluster);
  hdfs_ = std::make_unique<hdfs::Hdfs>(*cluster_, config.hdfs);

  // An explicit policy name overrides the mode default; otherwise
  // MRapid modes run the D+ scheduler in the RM and baselines run the
  // stock CapacityScheduler.
  std::unique_ptr<yarn::Scheduler> scheduler;
  if (!config.scheduler.empty()) {
    core::SchedulerBuildConfig build;
    build.dplus = config.dplus;
    scheduler = core::SchedulerRegistry::instance().make(config.scheduler, build);
  } else if (is_mrapid_mode(mode)) {
    scheduler = std::make_unique<core::DPlusScheduler>(config.dplus);
  } else {
    scheduler = std::make_unique<yarn::HadoopCapacityScheduler>();
  }
  // An active fault plan needs the RM to watch NM liveness; without one
  // the monitor stays off so faultless runs are untouched.
  yarn::YarnConfig yarn_config = config.yarn;
  if (config.faults.active()) yarn_config.track_liveness = true;
  rm_ = std::make_unique<yarn::ResourceManager>(*cluster_, std::move(scheduler), yarn_config);
  // Every job's fetch engine counts into one per-world sink (the
  // JobClient copies config_.mr, so this must be wired before it).
  if (config_.mr.shuffle_stats == nullptr) config_.mr.shuffle_stats = &shuffle_stats_;
  client_ = std::make_unique<mr::JobClient>(*cluster_, *hdfs_, *rm_, config_.mr);

  core::FrameworkOptions framework_options = config.framework;
  if (framework_options.estimator.t_l == core::EstimatorDefaults{}.t_l &&
      framework_options.estimator.b_i == core::EstimatorDefaults{}.b_i) {
    framework_options.estimator = core::estimator_defaults_for(*cluster_, config.yarn);
  }
  framework_ = std::make_unique<core::MRapidFramework>(*cluster_, *hdfs_, *rm_, *client_,
                                                       framework_options);

  if (config.faults.active()) {
    injector_ = std::make_unique<FaultInjector>(*cluster_, *rm_, config.faults);
    if (is_mrapid_mode(mode) && config.framework.use_pool) {
      // Pool modes: AM kills target the AMs of jobs the framework is
      // actually running, not the idle reserve slots.
      injector_->set_am_victims([this] { return framework_->active_am_containers(); });
    }
  }
}

World::~World() {
  if (saved_log_threshold_) Logger::set_thread_threshold(*saved_log_threshold_);
}

void World::boot() {
  assert(!booted_);
  booted_ = true;
  rm_->start();
  if (is_mrapid_mode(mode_)) {
    bool pool_ready = false;
    framework_->start([this, &pool_ready] {
      pool_ready = true;
      sim_->stop();
    });
    if (!framework_->options().use_pool) {
      sim_->run_until(sim_->now() + sim::SimDuration::millis(1));
      if (injector_) injector_->arm();
      return;
    }
    sim_->run_until(sim_->now() + sim::SimDuration::seconds(120));
    assert(pool_ready && "AM pool failed to warm up");
  }
  // Arm after the system is up so injection times are measured from
  // readiness, not from the cold start.
  if (injector_) injector_->arm();
}

std::optional<mr::JobResult> World::run(wl::Workload& workload) {
  return run(workload, [](mr::JobSpec&) {});
}

std::optional<mr::JobResult> World::run(wl::Workload& workload,
                                        const std::function<void(mr::JobSpec&)>& adjust_spec) {
  if (!booted_) boot();
  mr::JobSpec spec = workload.make_spec(*hdfs_);
  adjust_spec(spec);

  std::optional<mr::JobResult> outcome;
  auto on_complete = [this, &outcome](const mr::JobResult& result) {
    outcome = result;
    sim_->stop();
  };

  switch (mode_) {
    case RunMode::kHadoop:
    case RunMode::kUber:
      client_->submit(spec, to_execution_mode(mode_), on_complete);
      break;
    case RunMode::kDPlus:
    case RunMode::kUPlus:
      framework_->submit_in_mode(spec, to_execution_mode(mode_), on_complete);
      break;
    case RunMode::kMRapidAuto:
      framework_->submit(spec, on_complete);
      break;
    case RunMode::kSpark: {
      spark_apps_.push_back(std::make_unique<spark::SparkApp>(*cluster_, *hdfs_, *rm_, config_.mr,
                                                              config_.spark, spec, on_complete));
      spark_apps_.back()->submit();
      break;
    }
  }

  sim_->run_until(sim_->now() + config_.deadline);
  if (!outcome.has_value()) {
    LOG_WARN("harness", "run of %s (%s) hit the %.0fs deadline", spec.name.c_str(),
             run_mode_name(mode_), config_.deadline.as_seconds());
  }
  return outcome;
}

std::optional<mr::JobResult> run_workload(const WorldConfig& config, RunMode mode,
                                          wl::Workload& workload) {
  World world(config, mode);
  return world.run(workload);
}

}  // namespace mrapid::harness
