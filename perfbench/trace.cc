#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

/// Open spans of the calling thread, innermost last.
std::vector<int>& OpenStack() {
  thread_local std::vector<int> stack;
  return stack;
}

void AppendEscaped(const std::string& text, std::string* out) {
  for (char c : text) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const std::string& name, int64_t request_id) {
  if (!enabled_) return -1;
  std::vector<int>& stack = OpenStack();
  Span span;
  span.name = name;
  span.start_us = NowMicros();
  span.parent = stack.empty() ? -1 : stack.back();
  span.request_id = request_id;
  span.thread = ThreadIndex();
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    span.id = id;
    spans_.push_back(std::move(span));
  }
  stack.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const int64_t now = NowMicros();
  std::vector<int>& stack = OpenStack();
  if (!stack.empty() && stack.back() == id) stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = now;
}

void Tracer::Record(const std::string& name, int64_t start_us,
                    int64_t end_us, int parent, int64_t request_id) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  span.parent = parent;
  span.request_id = request_id;
  span.thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, std::vector<double>> Tracer::DurationsMs() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans()) {
    out[s.name].push_back(static_cast<double>(s.end_us - s.start_us) / 1e3);
  }
  return out;
}

std::vector<int64_t> SelfTimesMicros(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_us,
                                                           s.end_us);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_us;
    const int64_t hi = spans[i].end_us;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (const auto& [start, end] : kids) {
      const int64_t a = std::max(start, cursor);
      const int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<int64_t> self = SelfTimesMicros(all);
  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (i > 0) json += ',';
    json += "{\"name\":\"";
    AppendEscaped(s.name, &json);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%lld,"
                  "\"dur\":%lld,\"args\":{\"id\":%d,\"parent\":%d,"
                  "\"request_id\":%lld,\"self_us\":%lld}}",
                  s.thread, static_cast<long long>(s.start_us),
                  static_cast<long long>(s.end_us - s.start_us), s.id,
                  s.parent, static_cast<long long>(s.request_id),
                  static_cast<long long>(self[i]));
    json += buf;
  }
  json += "]}\n";
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
