// Spans recorded from the benchmark's own code around its calls into the
// library's layers. Spans live in memory and are written out once, when
// the run ends. A disabled tracer records nothing, so the untraced phases
// pay only a branch per call.

#ifndef E2EBENCH_TRACER_H_
#define E2EBENCH_TRACER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

// Nanoseconds on the steady clock.
int64_t NowNs();

class Tracer {
 public:
  struct Span {
    int64_t id = 0;
    int64_t parent = 0;   // 0 = a root span
    int64_t request = 0;  // spans of one query share this
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    double value = 0.0;  // an optional count measured at the boundary
  };

  // An open span; Close() (or the destructor) records it. `name` must be a
  // string literal (or otherwise outlive the scope).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t request, int64_t parent);
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int64_t id() const { return id_; }
    // `name` must be a string literal (or otherwise outlive the scope).
    void set_name(const char* name) { name_ = name; }
    void set_value(double value) { value_ = value; }
    void Close();

   private:
    Tracer* tracer_;  // null when tracing is off or already closed
    const char* name_;
    int64_t id_ = 0;
    int64_t request_;
    int64_t parent_;
    int64_t start_ns_ = 0;
    double value_ = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // A fresh request id (also valid while disabled).
  int64_t NewRequest();

  // Writes "id parent request name start_ns end_ns value" lines.
  bool WriteTsv(const std::string& path) const;

 private:
  int64_t NextId();
  void Record(Span span);

  bool enabled_;
  mutable std::mutex mutex_;  // guards next_id_ and spans_
  int64_t next_id_ = 0;
  std::vector<Span> spans_;
};

}  // namespace e2e

#endif  // E2EBENCH_TRACER_H_
