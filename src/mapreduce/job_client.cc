#include "mapreduce/job_client.h"

#include <cassert>

#include "common/log.h"
#include "mapreduce/app_master.h"
#include "mapreduce/uber_am.h"

namespace mrapid::mr {

JobClient::JobClient(cluster::Cluster& cluster, hdfs::Hdfs& hdfs, yarn::ResourceManager& rm,
                     MRConfig config)
    : cluster_(cluster), hdfs_(hdfs), rm_(rm), sim_(cluster.simulation()), config_(config) {}

JobSpec with_mode_defaults(JobSpec spec, ExecutionMode mode) {
  if (spec.uber_options_locked) return spec;
  switch (mode) {
    case ExecutionMode::kHadoopDistributed:
    case ExecutionMode::kDPlus:
    case ExecutionMode::kSparkLite:
      break;
    case ExecutionMode::kHadoopUber:
      spec.uber.parallel = false;
      spec.uber.cache_in_memory = false;
      break;
    case ExecutionMode::kUPlus:
      spec.uber.parallel = true;
      spec.uber.cache_in_memory = true;
      break;
  }
  return spec;
}

AmBase& JobClient::make_app_master(const JobSpec& spec, ExecutionMode mode,
                                   AmBase::CompletionCallback on_complete) {
  assert(mode != ExecutionMode::kSparkLite && "SparkLite jobs go through spark::SparkApp");
  const JobSpec adjusted = with_mode_defaults(spec, mode);
  if (mode == ExecutionMode::kHadoopUber || mode == ExecutionMode::kUPlus) {
    ams_.push_back(std::make_unique<UberAppMaster>(cluster_, hdfs_, rm_, config_, adjusted, mode,
                                                   std::move(on_complete)));
  } else {
    ams_.push_back(std::make_unique<MRAppMaster>(cluster_, hdfs_, rm_, config_, adjusted, mode,
                                                 std::move(on_complete)));
  }
  return *ams_.back();
}

void JobClient::upload_job_files(const std::string& staging_dir, cluster::NodeId writer,
                                 std::function<void()> staged) {
  auto pending = std::make_shared<int>(2);
  auto shared = std::make_shared<std::function<void()>>(std::move(staged));
  auto one_done = [pending, shared] {
    if (--*pending == 0) (*shared)();
  };
  hdfs_.write_file(staging_dir + "/job.jar", config_.job_jar_size, writer, one_done);
  hdfs_.write_file(staging_dir + "/job.xml", config_.job_conf_size, writer, one_done);
}

AmBase& JobClient::submit(const JobSpec& spec, ExecutionMode mode,
                          AmBase::CompletionCallback on_complete) {
  assert(spec.logic != nullptr);
  const int seq = next_job_seq_++;
  Submission* sub = &submissions_.emplace_back(
      Submission{.spec = spec, .mode = mode, .submit_time = sim_.now(),
                 .on_complete = std::move(on_complete)});
  // Unique output/staging paths so concurrent attempts (speculative
  // execution) never collide in HDFS.
  sub->spec.output_path += "." + std::string(mode_name(mode)) + "." + std::to_string(seq);
  const std::string staging_dir =
      "/tmp/staging/" + sub->spec.name + "." + std::to_string(seq);
  sub->am = &new_attempt(*sub, sub->spec);

  // Step 1: job-id RPC; step 2: upload jar + conf; step 3: submit.
  sim_.schedule_after(rm_.config().rpc_latency, [this, sub, staging_dir] {
    if (sub->am->was_killed()) return;  // killed during the submission RPC
    upload_job_files(staging_dir, cluster_.master(), [this, sub] {
      if (sub->am->was_killed()) return;
      const yarn::AppId app = rm_.submit_application(
          sub->am->spec().name,
          [this, sub](const yarn::Container& container) { on_am_container(*sub, container); });
      sub->am->set_app_id(app);
      rm_.set_am_lost_handler(app, [sub] { sub->am->abandon(); });
      rm_.set_am_failure_handler(app, [this, sub] {
        // AM attempt budget exhausted: the RM already unregistered the
        // app; report a clean failure to the client.
        JobResult result;
        result.succeeded = false;
        result.profile = sub->am->live_profile();
        report(*sub, result);
      });
      // A kill that raced the submission would have missed the app id;
      // reconcile so the AM container is reclaimed.
      if (sub->am->was_killed()) rm_.finish_application(app);
    });
  }, "client:submit");
  return *sub->am;
}

AmBase& JobClient::new_attempt(Submission& sub, const JobSpec& spec) {
  AmBase& am = make_app_master(
      spec, sub.mode, [this, sub = &sub](const JobResult& result) { report(*sub, result); });
  am.set_submit_time(sub.submit_time);
  return am;
}

void JobClient::on_am_container(Submission& sub, const yarn::Container& container) {
  if (!sub.started) {
    sub.started = true;
    if (!sub.am->was_killed()) sub.am->start(container);
    return;
  }
  // AM re-execution: the previous attempt died with its container.
  // Task state died with it, so a fresh AM reruns the whole job under
  // the same application (new attempt output paths avoid HDFS
  // collisions with the old one).
  ++sub.restarts;
  sub.lost_containers += sub.am->live_profile().lost_containers;
  JobSpec retry = sub.spec;
  retry.output_path += "_am" + std::to_string(sub.restarts);
  AmBase& fresh = new_attempt(sub, retry);
  fresh.set_app_id(sub.am->app_id());
  sub.am = &fresh;
  fresh.start(container);
}

void JobClient::report(Submission& sub, const JobResult& result) {
  if (sub.reported) return;  // only the final attempt reports
  sub.reported = true;
  JobResult adjusted_result = result;
  adjusted_result.profile.am_restarts = sub.restarts;
  adjusted_result.profile.lost_containers += sub.lost_containers;
  // The client observes completion at its next 1 s status poll, not
  // the instant the AM unregisters.
  const std::int64_t poll_us = config_.client_poll.as_micros();
  const std::int64_t elapsed_us = (sim_.now() - sub.submit_time).as_micros();
  const std::int64_t aligned_us = ((elapsed_us + poll_us - 1) / poll_us) * poll_us;
  const sim::SimTime seen = sub.submit_time + sim::SimDuration::micros(aligned_us);
  sim_.schedule_at(seen, [seen, sub = &sub, adjusted_result]() mutable {
    adjusted_result.profile.client_done_time = seen;
    sub->on_complete(adjusted_result);
  }, "client:poll-complete");
}

}  // namespace mrapid::mr
