// Error lines for the threaded runtime's PEs. Thread-safe at the line
// level (a single formatted line is written atomically under a mutex),
// which is all the threaded runtime requires.
#pragma once

#include <iostream>
#include <mutex>
#include <sstream>

namespace slb {

/// Builds one "[error] " line with stream syntax and writes it to stderr
/// on destruction.
class LogLine {
 public:
  LogLine() = default;
  ~LogLine() {
    static std::mutex mu;
    std::lock_guard<std::mutex> guard(mu);
    std::cerr << "[error] " << stream_.str() << '\n';
  }

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace slb

#define SLB_ERROR() ::slb::LogLine()
