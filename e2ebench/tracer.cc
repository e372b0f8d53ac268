#include "tracer.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t request,
                     int64_t parent)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      name_(name),
      request_(request),
      parent_(parent) {
  if (tracer_ != nullptr) {
    id_ = tracer_->NextId();
    start_ns_ = NowNs();
  }
}

void Tracer::Scope::Close() {
  if (tracer_ == nullptr) return;
  Span span;
  span.end_ns = NowNs();
  span.id = id_;
  span.parent = parent_;
  span.request = request_;
  span.name = name_;
  span.start_ns = start_ns_;
  span.value = value_;
  tracer_->Record(std::move(span));
  tracer_ = nullptr;
}

int64_t Tracer::NewRequest() { return NextId(); }

int64_t Tracer::NextId() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ++next_id_;
}

void Tracer::Record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    std::fprintf(f, "%lld\t%lld\t%lld\t%s\t%lld\t%lld\t%.17g\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.value);
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
