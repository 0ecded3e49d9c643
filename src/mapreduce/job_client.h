#pragma once

// The standard Hadoop job submission path (paper Figure 1, steps 1-6):
//   1. client asks the RM for a job id (RPC),
//   2. client uploads the job jar / configuration / split metadata to HDFS,
//   3. client submits the application to the RM,
//   4. the RM scheduler allocates the AM container,
//   5. an NM launches the AM (t^l) and the AM initialises (am_init),
//   6. the AM requests task containers and drives the job.
//
// The MRapid submission framework (src/mrapid/proxy.h) replaces steps
// 3-5 with an RPC to an AM reserved in the pool; everything else is
// shared.

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "mapreduce/am_base.h"

namespace mrapid::mr {

class JobClient {
 public:
  JobClient(cluster::Cluster& cluster, hdfs::Hdfs& hdfs, yarn::ResourceManager& rm,
            MRConfig config);

  // Submits `spec` in the given mode. Returns the first AM attempt
  // (already registered; the job starts asynchronously in simulated
  // time). The reference stays valid until the client is destroyed.
  AmBase& submit(const JobSpec& spec, ExecutionMode mode, AmBase::CompletionCallback on_complete);

  const MRConfig& config() const { return config_; }

  // Builds the right AM flavour for `mode` (also used by the MRapid
  // submission framework, which launches AMs through its pool). The
  // reference stays valid until the client is destroyed.
  AmBase& make_app_master(const JobSpec& spec, ExecutionMode mode,
                          AmBase::CompletionCallback on_complete);

  // Stages jar + conf into HDFS and calls `staged` when durable (step 2).
  void upload_job_files(const std::string& staging_dir, cluster::NodeId writer,
                        std::function<void()> staged);

 private:
  // One submission may run several AM attempts (the RM re-executes the
  // AM when its container dies with a node); `am` is the current
  // attempt, so RM callbacks always reach the live AM.
  struct Submission {
    JobSpec spec;  // with this submission's unique output path
    ExecutionMode mode = ExecutionMode::kHadoopDistributed;
    sim::SimTime submit_time;
    AmBase::CompletionCallback on_complete;
    AmBase* am = nullptr;
    int restarts = 0;                 // AM re-executions so far
    std::size_t lost_containers = 0;  // accumulated over abandoned attempts
    bool started = false;
    bool reported = false;
  };

  AmBase& new_attempt(Submission& sub, const JobSpec& spec);
  void on_am_container(Submission& sub, const yarn::Container& container);
  void report(Submission& sub, const JobResult& result);

  cluster::Cluster& cluster_;
  hdfs::Hdfs& hdfs_;
  yarn::ResourceManager& rm_;
  sim::Simulation& sim_;
  MRConfig config_;
  // Every AM built here, killed and abandoned attempts included, since
  // events and RM handlers point at them. After config_, which they
  // reference, so they are destroyed first.
  std::vector<std::unique_ptr<AmBase>> ams_;
  std::deque<Submission> submissions_;  // deque: closures hold element addresses
  int next_job_seq_ = 1;
};

// Applies the per-mode Uber defaults the paper describes: baseline
// Uber is sequential + spilling, U+ is parallel + in-memory cache.
JobSpec with_mode_defaults(JobSpec spec, ExecutionMode mode);

}  // namespace mrapid::mr
