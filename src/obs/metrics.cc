#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace tdb {
namespace obs {

namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

uint64_t HistogramSnapshot::Quantile(double p) const {
  if (count == 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  // Rank of the target sample, 1-based; p=0 selects the first sample.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(p / 100.0 * static_cast<double>(count) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return Histogram::BucketUpperBound(static_cast<int>(i));
  }
  return Histogram::BucketUpperBound(static_cast<int>(buckets.size()) - 1);
}

uint64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

uint64_t MetricsSnapshot::SumCounters(const std::string& prefix,
                                      const std::string& suffix) const {
  uint64_t total = 0;
  for (auto it = counters.lower_bound(prefix); it != counters.end(); ++it) {
    const std::string& name = it->first;
    if (!prefix.empty() && name.compare(0, prefix.size(), prefix) != 0) break;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += it->second;
    }
  }
  return total;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out.push_back(':');
    out.append(std::to_string(value));
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out.push_back(':');
    out.append(std::to_string(value));
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out.append(":{\"count\":");
    out.append(std::to_string(h.count));
    out.append(",\"sum\":");
    out.append(std::to_string(h.sum));
    out.append(",\"buckets\":[");
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i != 0) out.push_back(',');
      out.append(std::to_string(h.buckets[i]));
    }
    out.append("]}");
  }
  out.append("}}");
  return out;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

PagerMetrics* MetricsRegistry::pager(const std::string& file_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = pagers_[file_name];
  if (slot == nullptr) slot = std::make_unique<PagerMetrics>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.count = h->count();
    hs.sum = h->sum();
    int last = -1;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (h->bucket(i) != 0) last = i;
    }
    for (int i = 0; i <= last; ++i) hs.buckets.push_back(h->bucket(i));
    snap.histograms[name] = std::move(hs);
  }
  uint64_t key_compares = 0;
  for (const auto& [file, pm] : pagers_) {
    key_compares += pm->key_compares.value();
    snap.counters["bufpool." + file + ".requests"] = pm->requests.value();
    snap.counters["bufpool." + file + ".hits"] = pm->hits.value();
    snap.counters["bufpool." + file + ".misses"] = pm->misses.value();
    snap.counters["bufpool." + file + ".evictions"] = pm->evictions.value();
    snap.counters["pager." + file + ".read_pages"] = pm->read_pages.value();
    snap.counters["pager." + file + ".write_pages"] = pm->write_pages.value();
    snap.counters["pager." + file + ".syncs"] = pm->syncs.value();
  }
  if (!pagers_.empty()) snap.counters["storage.key_compares"] = key_compares;
  return snap;
}

}  // namespace obs
}  // namespace tdb
