// perfbench_driver: runs one serial pass of one benchmark workload and
// prints a single JSON line with its trial timings, simulated
// fingerprint, failures and (traced) per-module metrics. run.py spawns
// one driver process per pass and aggregates.
//
//   perfbench_driver --workload figures|wide-job|fuzz --seed N
//                    [--trace 0|1] [--spans FILE]
//   perfbench_driver --list-metrics

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload figures|wide-job|fuzz --seed N "
               "[--trace 0|1] [--spans FILE]\n"
               "       perfbench_driver --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::string spans_path;
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    for (const std::string& name : perfbench::metric_names()) std::printf("%s\n", name.c_str());
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::stoull(value);
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return usage();
    }
  }
  if (workload.empty()) return usage();

  try {
    const perfbench::PassResult pass = perfbench::run_pass(workload, seed, trace);
    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      pass.spans.write_jsonl(out);
      if (!out) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n", spans_path.c_str());
        return 1;
      }
    }

    char fingerprint[20];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016" PRIx64, pass.fingerprint);
    std::string line = "{\"workload\": " + json_string(workload) +
                       ", \"fingerprint\": \"" + fingerprint + "\", \"trials\": [";
    for (std::size_t i = 0; i < pass.trials.size(); ++i) {
      const perfbench::TrialRecord& t = pass.trials[i];
      if (i > 0) line += ", ";
      line += "{\"start\": " + num(t.start) + ", \"end\": " + num(t.end) +
              ", \"setup_s\": " + num(t.setup_s) + ", \"ok\": " + (t.ok ? "true" : "false") +
              ", \"stream_s\": " + num(t.stream_s) + "}";
    }
    line += "], \"errors\": [";
    for (std::size_t i = 0; i < pass.errors.size(); ++i) {
      if (i > 0) line += ", ";
      line += json_string(pass.errors[i]);
    }
    line += "], \"metrics\": {";
    for (std::size_t i = 0; i < pass.metrics.size(); ++i) {
      if (i > 0) line += ", ";
      line += json_string(pass.metrics[i].first) + ": " + num(pass.metrics[i].second);
    }
    line += "}}";
    std::cout << line << std::endl;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
