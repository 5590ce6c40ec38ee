#include "storage/pager.h"

#include <cstring>

#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "util/stringx.h"

namespace tdb {

namespace {
bool AllZero(const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (data[i] != 0) return false;
  }
  return true;
}
}  // namespace

Pager::Pager(std::unique_ptr<RandomRWFile> file, std::string path,
             IoCounters* counters, uint32_t page_count, int frames,
             Journal* journal, const StorageOptions& sopts)
    : file_(std::move(file)),
      path_(std::move(path)),
      counters_(counters),
      journal_(journal),
      page_count_(page_count),
      page_size_(sopts.page_size),
      usable_size_(sopts.page_size - (sopts.checksum ? 4u : 0u)),
      checksum_(sopts.checksum),
      pool_(sopts.pool) {
  if (pool_ != nullptr) {
    pool_cap_ = pool_->per_file_frames();
    pool_->AddPager(this);
  } else {
    frames_ = std::vector<Frame>(static_cast<size_t>(frames));
    for (Frame& frame : frames_) frame.data.resize(page_size_);
  }
}

Pager::~Pager() {
  if (pool_ != nullptr) {
    // No frame may outlive its owner in the pool, written back or not.
    if (!pool_->FlushAndDrop(this).ok()) pool_->DiscardAll(this);
    pool_->RemovePager(this);
  } else {
    (void)Flush();
  }
}

void Pager::Count(bool write, IoCategory cat, uint32_t pno) {
  if (counters_ == nullptr) return;
  if (write) {
    ++counters_->writes[static_cast<int>(cat)];
  } else {
    ++counters_->reads[static_cast<int>(cat)];
  }
  if (counters_->trace != nullptr) {
    counters_->trace->Record(counters_->trace_file_id, pno, write);
  }
  if (counters_->metrics != nullptr) {
    (write ? counters_->metrics->write_pages : counters_->metrics->read_pages)
        .Increment();
  }
}

void Pager::NoteRequest(bool hit) {
  if (metrics() == nullptr) return;
  metrics()->requests.Increment();
  (hit ? metrics()->hits : metrics()->misses).Increment();
}

void Pager::StampChecksum(uint8_t* data) const {
  if (!checksum_) return;
  const uint32_t crc = Crc32(data, usable_size_);
  std::memcpy(data + usable_size_, &crc, 4);
}

Status Pager::VerifyChecksum(const uint8_t* data, uint32_t pno) const {
  if (!checksum_) return Status::OK();
  uint32_t stored = 0;
  std::memcpy(&stored, data + usable_size_, 4);
  const uint32_t actual = Crc32(data, usable_size_);
  if (stored == actual) return Status::OK();
  // A page the file grew over but never wrote back (e.g. allocated then
  // rolled back) reads as all zeros; that is not corruption.
  if (stored == 0 && AllZero(data, usable_size_)) return Status::OK();
  return Status::Corruption(
      StrPrintf("page %u of '%s' fails CRC (stored %08x, computed %08x)", pno,
                path_.c_str(), stored, actual));
}

Result<std::unique_ptr<Pager>> Pager::Open(Env* env, const std::string& path,
                                           IoCounters* counters, int frames,
                                           Journal* journal,
                                           const StorageOptions& sopts) {
  if (frames < 1 || frames > 1024) {
    return Status::Invalid("pager frame count must be in [1, 1024]");
  }
  if (sopts.page_size < 512 || sopts.page_size > 65536 ||
      sopts.page_size % 256 != 0) {
    return Status::Invalid(
        StrPrintf("page size %u must be in [512, 65536] and a multiple of 256",
                  sopts.page_size));
  }
  if (sopts.pool != nullptr && sopts.pool->page_size() != sopts.page_size) {
    return Status::Invalid(
        StrPrintf("pager page size %u does not match buffer pool page size %u",
                  sopts.page_size, sopts.pool->page_size()));
  }
  // Journal the creation before it happens, so rolling back a statement
  // that made this relation's first file deletes the file again.
  if (journal != nullptr && !env->FileExists(path)) {
    TDB_RETURN_NOT_OK(journal->BeforeFileRewrite(path));
  }
  TDB_ASSIGN_OR_RETURN(auto file, env->OpenOrCreate(path));
  TDB_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size % sopts.page_size != 0) {
    return Status::Corruption(
        StrPrintf("file '%s' size %llu is not page aligned", path.c_str(),
                  static_cast<unsigned long long>(size)));
  }
  return std::unique_ptr<Pager>(
      new Pager(std::move(file), path, counters,
                static_cast<uint32_t>(size / sopts.page_size), frames, journal,
                sopts));
}

Status Pager::WriteBack(uint32_t pno, uint8_t* data, IoCategory cat) {
  // WAL discipline: the on-disk pre-image of this page must be in the
  // journal (and, in sync mode, on stable storage) before the overwrite.
  if (journal_ != nullptr) {
    TDB_RETURN_NOT_OK(journal_->BeforePageWrite(path_, file_.get(), pno));
  }
  StampChecksum(data);
  unsynced_ = true;
  TDB_RETURN_NOT_OK(file_->Write(static_cast<uint64_t>(pno) * page_size_,
                                 data, page_size_));
  Count(/*write=*/true, cat, pno);
  return Status::OK();
}

Status Pager::LoadFrom(uint32_t pno, uint8_t* out, bool count,
                       IoCategory cat) {
  TDB_RETURN_NOT_OK(file_->Read(static_cast<uint64_t>(pno) * page_size_,
                                page_size_, out));
  TDB_RETURN_NOT_OK(VerifyChecksum(out, pno));
  if (count) Count(/*write=*/false, cat, pno);
  return Status::OK();
}

Status Pager::GrowFile() {
  const uint64_t new_size = static_cast<uint64_t>(page_count_) * page_size_;
  if (journal_ != nullptr) {
    TDB_RETURN_NOT_OK(journal_->BeforeTruncate(path_, file_.get(), new_size));
  }
  unsynced_ = true;
  return file_->Truncate(new_size);
}

Status Pager::LogPreImages(const std::vector<uint32_t>& pnos) {
  // A clean flush never touches the journal: ~Pager flushes while another
  // session's batch may be active.
  if (journal_ == nullptr || pnos.empty()) return Status::OK();
  return journal_->BeforePageWrites(path_, file_.get(), pnos);
}

Pager::Frame* Pager::FindFrame(uint32_t pno) {
  for (Frame& frame : frames_) {
    if (frame.pno == pno) return &frame;
  }
  return nullptr;
}

Status Pager::FlushFrame(Frame* frame) {
  if (!frame->dirty || frame->pno == kNoPage) return Status::OK();
  TDB_RETURN_NOT_OK(WriteBack(frame->pno, frame->data.data(),
                              frame->category));
  frame->dirty = false;
  return Status::OK();
}

Result<Pager::Frame*> Pager::EvictableFrame() {
  Frame* victim = &frames_[0];
  for (Frame& frame : frames_) {
    if (frame.pno == kNoPage) {
      victim = &frame;
      break;
    }
    if (frame.last_use < victim->last_use) victim = &frame;
  }
  if (victim->pno != kNoPage && metrics() != nullptr) {
    metrics()->evictions.Increment();
  }
  TDB_RETURN_NOT_OK(FlushFrame(victim));
  return victim;
}

Result<uint8_t*> Pager::ReadPage(uint32_t pno, IoCategory cat) {
  if (pno >= page_count_) {
    return Status::OutOfRange(StrPrintf("page %u >= page count %u in '%s'",
                                        pno, page_count_, path_.c_str()));
  }
  if (pool_ != nullptr) return pool_->ReadPage(this, pno, cat);
  Frame* frame = FindFrame(pno);
  NoteRequest(frame != nullptr);
  if (frame == nullptr) {
    TDB_ASSIGN_OR_RETURN(frame, EvictableFrame());
    TDB_RETURN_NOT_OK(LoadFrom(pno, frame->data.data(), /*count=*/true, cat));
    frame->pno = pno;
    frame->category = cat;
    frame->dirty = false;
    frame->generation.fetch_add(1, std::memory_order_relaxed);
  }
  frame->last_use = ++tick_;
  last_touched_ = frame;
  return frame->data.data();
}

void Pager::MarkDirty() {
  if (pool_ != nullptr) {
    pool_->MarkDirty(this);
    return;
  }
  if (last_touched_ != nullptr) last_touched_->dirty = true;
}

Status Pager::ReadPageInto(uint32_t pno, IoCategory cat, uint8_t* out,
                           ReadTally* tally) {
  if (pno >= page_count_) {
    return Status::OutOfRange(StrPrintf("page %u >= page count %u in '%s'",
                                        pno, page_count_, path_.c_str()));
  }
  if (pool_ != nullptr) return pool_->ReadPageInto(this, pno, cat, out, tally);
  // The frames do not change while the workers read: the coordinator, their
  // only writer, waits for them.
  if (const Frame* frame = FindFrame(pno); frame != nullptr) {
    std::memcpy(out, frame->data.data(), page_size_);
    ++tally->hits;
    return Status::OK();
  }
  ++tally->misses;
  TDB_RETURN_NOT_OK(LoadFrom(pno, out, /*count=*/false, cat));
  ++tally->reads[static_cast<int>(cat)];
  return Status::OK();
}

void Pager::AddTally(const ReadTally& tally) {
  if (pool_ != nullptr) pool_->AddTally(tally);
  uint64_t read_pages = 0;
  for (int i = 0; i < kNumIoCategories; ++i) {
    if (counters_ != nullptr) counters_->reads[i] += tally.reads[i];
    read_pages += tally.reads[i];
  }
  if (metrics() == nullptr) return;
  metrics()->requests.Add(tally.hits + tally.misses);
  metrics()->hits.Add(tally.hits);
  metrics()->misses.Add(tally.misses);
  metrics()->read_pages.Add(read_pages);
}

Status Pager::PrimeFrame(uint32_t pno, IoCategory cat) {
  if (pno >= page_count_) return Status::OK();
  if (pool_ != nullptr) return pool_->PrimeFrame(this, pno, cat);
  Frame* frame = FindFrame(pno);
  if (frame == nullptr) {
    TDB_ASSIGN_OR_RETURN(frame, EvictableFrame());
    // Deliberately uncounted: the parallel workers already charged the read
    // of this page; this load only restores the serial scan's end state.
    TDB_RETURN_NOT_OK(LoadFrom(pno, frame->data.data(), /*count=*/false, cat));
    frame->pno = pno;
    frame->category = cat;
    frame->dirty = false;
    frame->generation.fetch_add(1, std::memory_order_relaxed);
  }
  frame->last_use = ++tick_;
  last_touched_ = frame;
  return Status::OK();
}

std::vector<uint32_t> Pager::ResidentPages() const {
  if (pool_ != nullptr) return pool_->ResidentPages(this);
  std::vector<uint32_t> pnos;
  for (const Frame& frame : frames_) {
    if (frame.pno != kNoPage) pnos.push_back(frame.pno);
  }
  return pnos;
}

Result<uint32_t> Pager::AllocatePage(IoCategory cat) {
  const uint32_t pno = page_count_;
  uint8_t* data = nullptr;
  if (pool_ != nullptr) {
    TDB_ASSIGN_OR_RETURN(data, pool_->AllocatePage(this, pno, cat));
  } else {
    TDB_ASSIGN_OR_RETURN(Frame * frame, EvictableFrame());
    std::memset(frame->data.data(), 0, page_size_);
    frame->pno = pno;
    frame->category = cat;
    frame->dirty = true;
    frame->last_use = ++tick_;
    frame->generation.fetch_add(1, std::memory_order_relaxed);
    last_touched_ = frame;
    data = frame->data.data();
  }
  // Format a valid empty page header (no overflow link).
  uint32_t none = kNoPage;
  std::memcpy(data, &none, 4);
  ++page_count_;
  // Extend the file now so page_count derived from size stays consistent
  // even if the frame is evicted later.
  TDB_RETURN_NOT_OK(GrowFile());
  return pno;
}

Status Pager::Sync() {
  if (!unsynced_) return Status::OK();
  if (metrics() != nullptr) metrics()->syncs.Increment();
  TDB_RETURN_NOT_OK(file_->Sync());
  unsynced_ = false;
  return Status::OK();
}

Status Pager::Flush() {
  if (pool_ != nullptr) return pool_->Flush(this);
  if (journal_ != nullptr) {
    std::vector<uint32_t> dirty;
    for (const Frame& frame : frames_) {
      if (frame.dirty && frame.pno != kNoPage) dirty.push_back(frame.pno);
    }
    TDB_RETURN_NOT_OK(LogPreImages(dirty));
  }
  for (Frame& frame : frames_) TDB_RETURN_NOT_OK(FlushFrame(&frame));
  return Status::OK();
}

Status Pager::FlushAndDrop() {
  if (pool_ != nullptr) return pool_->FlushAndDrop(this);
  TDB_RETURN_NOT_OK(Flush());
  ForgetFrames();
  return Status::OK();
}

Status Pager::Reset() {
  if (journal_ != nullptr) {
    TDB_RETURN_NOT_OK(journal_->BeforeTruncate(path_, file_.get(), 0));
  }
  DiscardAll();
  page_count_ = 0;
  unsynced_ = true;
  return file_->Truncate(0);
}

void Pager::DiscardAll() {
  if (pool_ != nullptr) {
    pool_->DiscardAll(this);
  } else {
    ForgetFrames();
  }
}

void Pager::ForgetFrames() {
  for (Frame& frame : frames_) {
    if (frame.pno != kNoPage) {
      frame.generation.fetch_add(1, std::memory_order_relaxed);
    }
    frame.pno = kNoPage;
    frame.dirty = false;
  }
  last_touched_ = nullptr;
}

const std::atomic<uint64_t>* Pager::frame_generation() const {
  if (pool_ != nullptr) return BufferPool::PinnedGeneration(this);
  return last_touched_ == nullptr ? nullptr : &last_touched_->generation;
}

}  // namespace tdb
