#include "stats/fct_sink.hpp"

#include <cassert>

namespace fncc {

namespace {
// One stdio buffer per sink: large enough that a million-row append pass
// issues a few thousand write() calls instead of one per row.
constexpr std::size_t kIoBufferBytes = 1u << 18;
}  // namespace

FctSink::FctSink(FctSinkOptions options)
    : options_(std::move(options)), slowdown_(options_.sketch_alpha) {
  bucket_state_.reserve(options_.bucket_edges.size());
  for (std::size_t i = 0; i < options_.bucket_edges.size(); ++i) {
    bucket_state_.emplace_back(options_.sketch_alpha);
  }
  if (!options_.csv_path.empty()) {
    file_ = std::fopen(options_.csv_path.c_str(), "w");
    if (!file_) {
      ok_ = false;
      return;
    }
    io_buffer_ = std::make_unique<char[]>(kIoBufferBytes);
    std::setvbuf(file_, io_buffer_.get(), _IOFBF, kIoBufferBytes);
    if (std::fprintf(
            file_,
            "flow,src,dst,size_bytes,start_us,fct_us,ideal_us,slowdown\n") <
        0) {
      ok_ = false;
    }
  }
}

FctSink::~FctSink() { Finish(); }

bool FctSink::Append(const FlowSpec& spec, Time fct) {
  assert(spec.ideal_fct > 0 && "ideal FCT must be resolved");
  const double slowdown =
      static_cast<double>(fct) / static_cast<double>(spec.ideal_fct);
  if (file_) {
    // Byte-identical to the historical WriteFctCsv row.
    if (std::fprintf(file_, "%u,%u,%u,%llu,%.3f,%.3f,%.3f,%.4f\n", spec.id,
                     spec.src, spec.dst,
                     static_cast<unsigned long long>(spec.size_bytes),
                     ToMicroseconds(spec.start_time), ToMicroseconds(fct),
                     ToMicroseconds(spec.ideal_fct), slowdown) < 0) {
      ok_ = false;
    }
  }
  slowdown_.Add(slowdown);
  slowdown_sum_ += slowdown;
  if (!bucket_state_.empty()) {
    // FctRecorder::Bucketed's placement: first edge with size <= edge;
    // oversize flows land in the last bucket.
    std::size_t i = 0;
    while (i + 1 < options_.bucket_edges.size() &&
           spec.size_bytes > options_.bucket_edges[i]) {
      ++i;
    }
    bucket_state_[i].slowdown.Add(slowdown);
    bucket_state_[i].slowdown_sum += slowdown;
  }
  if (options_.retain_records) recorder_.Record(spec, fct);
  return ok_;
}

bool FctSink::Finish() {
  if (file_) {
    if (std::fclose(file_) != 0) ok_ = false;
    file_ = nullptr;
    io_buffer_.reset();
  }
  return ok_;
}

std::vector<BucketStats> FctSink::BucketedApprox() const {
  std::vector<BucketStats> out;
  out.reserve(bucket_state_.size());
  for (std::size_t i = 0; i < bucket_state_.size(); ++i) {
    const BucketState& s = bucket_state_[i];
    BucketStats b;
    b.max_size_bytes = options_.bucket_edges[i];
    b.count = static_cast<std::size_t>(s.slowdown.count());
    if (b.count > 0) {
      b.avg = s.slowdown_sum / static_cast<double>(b.count);
      b.p50 = s.slowdown.Quantile(50);
      b.p95 = s.slowdown.Quantile(95);
      b.p99 = s.slowdown.Quantile(99);
    }
    out.push_back(b);
  }
  return out;
}

}  // namespace fncc
