#pragma once

// Base class for ApplicationMaster drivers. Concrete AMs: the
// distributed-mode MRAppMaster (per-task containers via the RM's
// scheduler — baseline Hadoop and MRapid D+) and the Uber AM (all
// tasks inside the AM container — baseline Uber and MRapid U+).
//
// Lifetime: the JobClient that builds an AM owns it until the client
// is destroyed, so callbacks holding `this` stay valid even after
// kill(); cancellation is the cooperative `killed` flag threaded
// through TaskEnv.

#include <functional>
#include <memory>

#include "cluster/cluster.h"
#include "hdfs/hdfs.h"
#include "mapreduce/job.h"
#include "mapreduce/task_runner.h"
#include "yarn/resource_manager.h"

namespace mrapid::mr {

class AmBase {
 public:
  using CompletionCallback = std::function<void(const JobResult&)>;

  AmBase(cluster::Cluster& cluster, hdfs::Hdfs& hdfs, yarn::ResourceManager& rm,
         const MRConfig& config, JobSpec spec, ExecutionMode mode, CompletionCallback on_complete);
  virtual ~AmBase() = default;

  AmBase(const AmBase&) = delete;
  AmBase& operator=(const AmBase&) = delete;

  // The AM container is up and initialised; run the job.
  virtual void start(const yarn::Container& am_container) = 0;

  // Terminate this attempt: sets the kill flag, releases containers,
  // unregisters from the RM. Idempotent.
  virtual void kill();

  // Terminate this attempt *without* unregistering the application:
  // the AM container died and the RM is re-executing the AM, so the
  // app record must survive for the next attempt. Idempotent.
  void abandon();

  bool finished() const { return finished_; }
  bool was_killed() const { return *killed_; }
  yarn::AppId app_id() const { return app_id_; }
  void set_app_id(yarn::AppId id) { app_id_ = id; }
  void set_submit_time(sim::SimTime t) { profile_.submit_time = t; }

  // Pool-managed AMs belong to a long-lived reserved application; on
  // job completion (or kill) they must stay registered so the slot can
  // be reused, only their queued asks are cancelled.
  void set_managed_by_pool(bool managed) { managed_by_pool_ = managed; }
  bool managed_by_pool() const { return managed_by_pool_; }

  // Live view for the speculative profiler: readable mid-run.
  const JobProfile& live_profile() const { return profile_; }
  int completed_maps() const { return completed_maps_; }
  int total_maps() const { return static_cast<int>(splits_.size()); }
  const JobSpec& spec() const { return spec_; }
  ExecutionMode mode() const { return mode_; }

 protected:
  TaskEnv env() {
    return TaskEnv{sim_, cluster_, hdfs_, config_,  killed_,
                   app_id_, profile_.submit_time.as_micros()};
  }
  void complete(bool success, std::vector<std::shared_ptr<const void>> reduce_results);

  cluster::Cluster& cluster_;
  hdfs::Hdfs& hdfs_;
  yarn::ResourceManager& rm_;
  sim::Simulation& sim_;
  const MRConfig& config_;
  JobSpec spec_;
  ExecutionMode mode_;
  CompletionCallback on_complete_;
  yarn::AppId app_id_ = yarn::kInvalidApp;
  std::shared_ptr<bool> killed_;
  bool finished_ = false;
  bool managed_by_pool_ = false;
  JobProfile profile_;
  std::vector<InputSplit> splits_;
  int completed_maps_ = 0;
};

}  // namespace mrapid::mr
