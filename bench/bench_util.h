// Helpers for bench_scaling (E14, DESIGN.md section 3): wall-clock timing,
// the table header, and BENCH_<name>.json emission in the working
// directory, which the CI lane uploads as an artifact.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernels.h"
#include "parallel/thread_pool.h"

namespace parsdd_bench {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void header(const char* experiment, const char* claim) {
  std::printf("\n=== %s ===\n%s\n(kernel backend: %s)\n\n", experiment,
              claim, parsdd::kernels::backend_name());
}

/// Accumulates flat key/value records and writes them as a JSON array to
/// BENCH_<name>.json.  One record per measured configuration; numeric
/// values keep full precision.  Usage:
///   BenchJson json("scaling");
///   json.record().str("phase", "setup").num("ms", ms);
///   json.write();
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  class Record {
   public:
    Record& num(const std::string& key, double value) {
      char buf[64];
      if (std::isfinite(value)) {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
      } else {
        // JSON has no nan/inf literals; null keeps the file parseable.
        std::snprintf(buf, sizeof(buf), "null");
      }
      fields_.push_back("\"" + key + "\": " + buf);
      return *this;
    }
    Record& str(const std::string& key, const std::string& value) {
      fields_.push_back("\"" + key + "\": \"" + escape(value) + "\"");
      return *this;
    }
    std::string json(const std::string& extra = std::string()) const {
      std::string out = "{";
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i) out += ", ";
        out += fields_[i];
      }
      if (!extra.empty()) {
        if (!fields_.empty()) out += ", ";
        out += extra;
      }
      return out + "}";
    }

   private:
    static std::string escape(const std::string& s) {
      std::string out;
      for (char c : s) {
        if (c == '"' || c == '\\') {
          out += '\\';
          out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
      }
      return out;
    }
    std::vector<std::string> fields_;
  };

  Record& record() {
    records_.emplace_back();
    return records_.back();
  }

  /// Writes BENCH_<name>.json; returns false (and warns) on I/O failure.
  bool write() const {
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    // Every record carries the execution environment so curves from
    // different pool sizes are distinguishable after the fact.
    char env[128];
    std::snprintf(env, sizeof(env),
                  "\"threads\": %d, \"hw_concurrency\": %u, "
                  "\"backend\": \"%s\"",
                  parsdd::ThreadPool::instance().concurrency(),
                  std::thread::hardware_concurrency(),
                  parsdd::kernels::backend_name());
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", records_[i].json(env).c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
    return true;
  }

 private:
  std::string name_;
  // Deque: references handed out by record() stay valid as more records are
  // added.
  std::deque<Record> records_;
};

}  // namespace parsdd_bench
