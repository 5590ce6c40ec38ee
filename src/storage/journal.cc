#include "storage/journal.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metrics.h"
#include "storage/page.h"
#include "util/stringx.h"

namespace tdb {

const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kOff:
      return "off";
    case DurabilityMode::kJournal:
      return "journal";
    case DurabilityMode::kJournalSync:
      return "journal+sync";
  }
  return "?";
}

uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

bool GetU8(const std::vector<uint8_t>& buf, size_t* off, uint8_t* v) {
  if (*off + 1 > buf.size()) return false;
  *v = buf[*off];
  *off += 1;
  return true;
}

bool GetU32(const std::vector<uint8_t>& buf, size_t* off, uint32_t* v) {
  if (*off + 4 > buf.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(buf[*off + i]) << (8 * i);
  *off += 4;
  return true;
}

bool GetU64(const std::vector<uint8_t>& buf, size_t* off, uint64_t* v) {
  if (*off + 8 > buf.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(buf[*off + i]) << (8 * i);
  *off += 8;
  return true;
}

}  // namespace

std::vector<uint8_t> Journal::EncodeRecord(const Record& rec) {
  std::vector<uint8_t> out;
  PutU8(&out, static_cast<uint8_t>(rec.type));
  PutU32(&out, static_cast<uint32_t>(rec.path.size()));
  out.insert(out.end(), rec.path.begin(), rec.path.end());
  switch (rec.type) {
    case kFileSize:
      PutU8(&out, rec.existed ? 1 : 0);
      PutU64(&out, rec.size);
      break;
    case kPageImage:
      PutU32(&out, rec.pno);
      PutU32(&out, static_cast<uint32_t>(rec.payload.size()));
      out.insert(out.end(), rec.payload.begin(), rec.payload.end());
      break;
    case kFileImage:
      PutU8(&out, rec.existed ? 1 : 0);
      PutU64(&out, static_cast<uint64_t>(rec.payload.size()));
      out.insert(out.end(), rec.payload.begin(), rec.payload.end());
      break;
    case kCommit:
      break;
  }
  PutU32(&out, Crc32(out.data(), out.size()));
  return out;
}

bool Journal::DecodeRecord(const std::vector<uint8_t>& buf, size_t* offset,
                           Record* out) {
  size_t off = *offset;
  const size_t start = off;
  uint8_t type = 0;
  uint32_t path_len = 0;
  if (!GetU8(buf, &off, &type) || !GetU32(buf, &off, &path_len)) return false;
  if (type < kFileSize || type > kCommit) return false;
  if (off + path_len > buf.size()) return false;
  out->type = static_cast<RecordType>(type);
  out->path.assign(reinterpret_cast<const char*>(buf.data() + off), path_len);
  off += path_len;
  out->payload.clear();
  switch (out->type) {
    case kFileSize: {
      uint8_t existed = 0;
      if (!GetU8(buf, &off, &existed) || !GetU64(buf, &off, &out->size)) {
        return false;
      }
      out->existed = existed != 0;
      break;
    }
    case kPageImage: {
      uint32_t len = 0;
      if (!GetU32(buf, &off, &out->pno) || !GetU32(buf, &off, &len)) {
        return false;
      }
      if (len == 0 || off + len > buf.size()) return false;
      out->payload.assign(buf.begin() + static_cast<long>(off),
                          buf.begin() + static_cast<long>(off + len));
      off += len;
      break;
    }
    case kFileImage: {
      uint8_t existed = 0;
      uint64_t len = 0;
      if (!GetU8(buf, &off, &existed) || !GetU64(buf, &off, &len)) return false;
      out->existed = existed != 0;
      if (off + len > buf.size()) return false;
      out->payload.assign(buf.begin() + static_cast<long>(off),
                          buf.begin() + static_cast<long>(off + len));
      off += static_cast<size_t>(len);
      break;
    }
    case kCommit:
      break;
  }
  uint32_t stored_crc = 0;
  if (!GetU32(buf, &off, &stored_crc)) return false;
  if (Crc32(buf.data() + start, off - 4 - start) != stored_crc) return false;
  *offset = off;
  return true;
}

Result<std::unique_ptr<Journal>> Journal::Open(Env* env,
                                               const std::string& dir,
                                               DurabilityMode mode) {
  std::string path = PathFor(dir);
  TDB_ASSIGN_OR_RETURN(auto file, env->OpenOrCreate(path));
  std::unique_ptr<Journal> journal(
      new Journal(env, std::move(path), std::move(file), mode));
  // Any prior batch was resolved by Recover(); discard leftovers.
  TDB_RETURN_NOT_OK(journal->file_->Truncate(0));
  return journal;
}

void Journal::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_batches_ = m_commits_ = m_rollbacks_ = nullptr;
    m_records_ = m_pre_image_bytes_ = m_replay_ops_ = nullptr;
    return;
  }
  m_batches_ = metrics->counter("journal.batches");
  m_commits_ = metrics->counter("journal.commits");
  m_rollbacks_ = metrics->counter("journal.rollbacks");
  m_records_ = metrics->counter("journal.records");
  m_pre_image_bytes_ = metrics->counter("journal.pre_image_bytes");
  m_replay_ops_ = metrics->counter("journal.replay_ops");
  m_group_syncs_ = metrics->counter("journal.group_syncs");
}

Status Journal::Begin() {
  if (!healthy_) {
    return Status::IOError(
        "journal rollback failed earlier; reopen the database to recover");
  }
  if (active_) return Status::Internal("journal batch already active");
  if (m_batches_ != nullptr) m_batches_->Increment();
  // Reclaim the file only once every sealed batch's commit mark is durable;
  // marks awaiting a WaitDurable() fsync must survive until then.
  if (committed_seq_.load(std::memory_order_acquire) ==
      synced_seq_.load(std::memory_order_acquire)) {
    TDB_RETURN_NOT_OK(file_->Truncate(0));
    write_offset_ = 0;
  }
  batch_start_offset_ = write_offset_;
  sync_pending_ = false;
  batch_.clear();
  files_.clear();
  active_ = true;
  return Status::OK();
}

Status Journal::AppendRecord(const Record& rec) {
  if (m_records_ != nullptr) {
    m_records_->Increment();
    m_pre_image_bytes_->Add(rec.payload.size());
  }
  std::vector<uint8_t> bytes = EncodeRecord(rec);
  TDB_RETURN_NOT_OK(file_->Write(write_offset_, bytes.data(), bytes.size()));
  write_offset_ += bytes.size();
  batch_.push_back(rec);
  sync_pending_ = true;
  return Status::OK();
}

Status Journal::SyncPending() {
  if (mode_ == DurabilityMode::kJournalSync && sync_pending_) {
    TDB_RETURN_NOT_OK(file_->Sync());
    sync_pending_ = false;
  }
  return Status::OK();
}

Result<Journal::FileState*> Journal::EnsureFileLogged(const std::string& path,
                                                      RandomRWFile* file) {
  auto it = files_.find(path);
  if (it != files_.end()) return &it->second;
  FileState fs;
  fs.existed = env_->FileExists(path);
  if (fs.existed) {
    if (file != nullptr) {
      TDB_ASSIGN_OR_RETURN(fs.batch_start_size, file->Size());
    } else {
      TDB_ASSIGN_OR_RETURN(auto probe, env_->OpenOrCreate(path));
      TDB_ASSIGN_OR_RETURN(fs.batch_start_size, probe->Size());
    }
  }
  Record rec;
  rec.type = kFileSize;
  rec.path = path;
  rec.existed = fs.existed;
  rec.size = fs.batch_start_size;
  TDB_RETURN_NOT_OK(AppendRecord(rec));
  return &files_.emplace(path, fs).first->second;
}

Status Journal::CaptureWholeFile(const std::string& path, FileState* fs) {
  if (fs->whole_file_captured) return Status::OK();
  Record rec;
  rec.type = kFileImage;
  rec.path = path;
  rec.existed = fs->existed || env_->FileExists(path);
  if (rec.existed) {
    TDB_ASSIGN_OR_RETURN(std::string content, env_->ReadFileToString(path));
    rec.payload.assign(content.begin(), content.end());
  }
  TDB_RETURN_NOT_OK(AppendRecord(rec));
  fs->whole_file_captured = true;
  return Status::OK();
}

Status Journal::BeforePageWrite(const std::string& path, RandomRWFile* file,
                                uint32_t pno) {

  if (!active_) return Status::OK();
  TDB_ASSIGN_OR_RETURN(FileState * fs, EnsureFileLogged(path, file));
  uint64_t end = (static_cast<uint64_t>(pno) + 1) * page_size_;
  if (!fs->whole_file_captured && end <= fs->batch_start_size &&
      fs->pages_logged.insert(pno).second) {
    Record rec;
    rec.type = kPageImage;
    rec.path = path;
    rec.pno = pno;
    rec.payload.resize(page_size_);
    // Read the pre-image straight from the file, bypassing the pager so the
    // paper's page-I/O accounting never sees journal traffic.
    TDB_RETURN_NOT_OK(file->Read(static_cast<uint64_t>(pno) * page_size_,
                                 page_size_, rec.payload.data()));
    TDB_RETURN_NOT_OK(AppendRecord(rec));
  }
  return SyncPending();
}

Status Journal::BeforeTruncate(const std::string& path, RandomRWFile* file,
                               uint64_t new_size) {
  if (!active_) return Status::OK();
  TDB_ASSIGN_OR_RETURN(FileState * fs, EnsureFileLogged(path, file));
  if (!fs->whole_file_captured && file != nullptr) {
    TDB_ASSIGN_OR_RETURN(uint64_t cur, file->Size());
    if (new_size < cur) {
      // A shrink destroys bytes the page records do not cover; keep the
      // whole current image (earlier page records still restore the bytes
      // this batch already overwrote before the shrink).
      TDB_RETURN_NOT_OK(CaptureWholeFile(path, fs));
    }
  }
  return SyncPending();
}

Status Journal::BeforeFileRewrite(const std::string& path) {
  if (!active_) return Status::OK();
  TDB_ASSIGN_OR_RETURN(FileState * fs, EnsureFileLogged(path, nullptr));
  TDB_RETURN_NOT_OK(CaptureWholeFile(path, fs));
  return SyncPending();
}

Status Journal::BeforeDeleteFile(const std::string& path) {
  if (!active_) return Status::OK();
  if (!env_->FileExists(path)) return Status::OK();
  return BeforeFileRewrite(path);
}

Result<uint64_t> Journal::CommitGroup() {
  if (!active_) return synced_seq_.load(std::memory_order_acquire);
  active_ = false;
  if (m_commits_ != nullptr) m_commits_->Increment();
  if (batch_.empty()) {
    // Read-only batch: nothing on disk, nothing to make durable.
    files_.clear();
    sync_pending_ = false;
    return synced_seq_.load(std::memory_order_acquire);
  }
  Record mark;
  mark.type = kCommit;
  std::vector<uint8_t> bytes = EncodeRecord(mark);
  TDB_RETURN_NOT_OK(file_->Write(write_offset_, bytes.data(), bytes.size()));
  write_offset_ += bytes.size();
  uint64_t ticket = committed_seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (mode_ != DurabilityMode::kJournalSync) {
    // Nothing ever fsyncs in these modes; the mark is as durable as it
    // will get, so Begin() may reclaim the file immediately.
    synced_seq_.store(ticket, std::memory_order_release);
  }
  batch_.clear();
  files_.clear();
  sync_pending_ = false;
  return ticket;
}

Status Journal::WaitDurable(uint64_t ticket) {
  if (mode_ != DurabilityMode::kJournalSync) return Status::OK();
  if (synced_seq_.load(std::memory_order_acquire) >= ticket) {
    return Status::OK();
  }
  // Leader election by mutex: the first waiter in fsyncs on behalf of every
  // mark appended so far; waiters arriving meanwhile find their ticket
  // already covered and return without touching the file.
  std::lock_guard<std::mutex> lock(sync_mu_);
  if (synced_seq_.load(std::memory_order_acquire) >= ticket) {
    return Status::OK();
  }
  // Group window: while another writer holds or awaits the WriterLock,
  // hold the fsync briefly so its mark can land and ride this sync for
  // free.  A lone writer has nobody to wait for.
  const int window = group_window_micros_.load(std::memory_order_relaxed);
  if (window > 0 && open_writers_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(window));
  }
  // Capture before the fsync: marks appended during the sync may or may not
  // be covered, so only claim the ones that provably were.
  uint64_t covers = committed_seq_.load(std::memory_order_acquire);
  TDB_RETURN_NOT_OK(file_->Sync());
  if (m_group_syncs_ != nullptr) m_group_syncs_->Increment();
  synced_seq_.store(covers, std::memory_order_release);
  return Status::OK();
}

Status Journal::Rollback() {
  if (!active_) return Status::OK();
  active_ = false;
  if (m_rollbacks_ != nullptr) {
    m_rollbacks_->Increment();
    m_replay_ops_->Add(batch_.size());
  }
  Status applied = ApplyReversed(env_, batch_);
  if (!applied.ok()) {
    healthy_ = false;
    return applied;
  }
  // Truncate only this batch's records: sealed group-commit batches before
  // batch_start_offset_ must keep their marks until they are synced.
  (void)file_->Truncate(batch_start_offset_);
  write_offset_ = batch_start_offset_;
  batch_.clear();
  files_.clear();
  sync_pending_ = false;
  return Status::OK();
}

Status Journal::ApplyReversed(Env* env, const std::vector<Record>& records) {
  std::vector<std::string> touched;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    const Record& rec = *it;
    switch (rec.type) {
      case kCommit:
        break;
      case kPageImage: {
        // The offset derives from the record's own payload length, so
        // recovery is correct for any page size the writer was using.
        TDB_ASSIGN_OR_RETURN(auto file, env->OpenOrCreate(rec.path));
        TDB_RETURN_NOT_OK(file->Write(
            static_cast<uint64_t>(rec.pno) * rec.payload.size(),
            rec.payload.data(), rec.payload.size()));
        touched.push_back(rec.path);
        break;
      }
      case kFileImage: {
        if (!rec.existed) {
          if (env->FileExists(rec.path)) {
            TDB_RETURN_NOT_OK(env->DeleteFile(rec.path));
          }
          break;
        }
        TDB_ASSIGN_OR_RETURN(auto file, env->OpenOrCreate(rec.path));
        TDB_RETURN_NOT_OK(file->Truncate(rec.payload.size()));
        if (!rec.payload.empty()) {
          TDB_RETURN_NOT_OK(
              file->Write(0, rec.payload.data(), rec.payload.size()));
        }
        touched.push_back(rec.path);
        break;
      }
      case kFileSize: {
        if (!rec.existed) {
          if (env->FileExists(rec.path)) {
            TDB_RETURN_NOT_OK(env->DeleteFile(rec.path));
          }
          break;
        }
        TDB_ASSIGN_OR_RETURN(auto file, env->OpenOrCreate(rec.path));
        TDB_RETURN_NOT_OK(file->Truncate(rec.size));
        touched.push_back(rec.path);
        break;
      }
    }
  }
  for (const std::string& path : touched) {
    if (!env->FileExists(path)) continue;
    TDB_ASSIGN_OR_RETURN(auto file, env->OpenOrCreate(path));
    TDB_RETURN_NOT_OK(file->Sync());
  }
  return Status::OK();
}

Status Journal::Recover(Env* env, const std::string& dir) {
  std::string path = PathFor(dir);
  if (!env->FileExists(path)) return Status::OK();
  TDB_ASSIGN_OR_RETURN(std::string text, env->ReadFileToString(path));
  std::vector<uint8_t> buf(text.begin(), text.end());
  std::vector<Record> records;
  size_t off = 0;
  while (off < buf.size()) {
    Record rec;
    if (!DecodeRecord(buf, &off, &rec)) break;  // torn tail: append was cut
    records.push_back(std::move(rec));
  }
  // Group commit leaves several sealed batches in one file; everything up
  // to the LAST commit mark committed, and only the records after it (a
  // batch cut off mid-statement) roll back.
  size_t resume = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].type == kCommit) resume = i + 1;
  }
  if (resume < records.size()) {
    std::vector<Record> open_batch(
        std::make_move_iterator(records.begin() + static_cast<long>(resume)),
        std::make_move_iterator(records.end()));
    TDB_RETURN_NOT_OK(ApplyReversed(env, open_batch));
  }
  // Committed (or empty, or fully undone): the journal is spent.
  TDB_ASSIGN_OR_RETURN(auto file, env->OpenOrCreate(path));
  TDB_RETURN_NOT_OK(file->Truncate(0));
  return file->Sync();
}

}  // namespace tdb
