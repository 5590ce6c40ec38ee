#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "core/session.h"
#include "net/protocol.h"

namespace tdb {
namespace net {

namespace {

/// epoll_event user-data tags for the two non-connection descriptors; a
/// connection carries its Conn pointer, which is never 0 or 1.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;

bool ValidDatabaseName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

DatabaseRegistry::DatabaseRegistry(std::string root, DatabaseOptions options)
    : root_(std::move(root)), options_(options) {}

Result<Database*> DatabaseRegistry::GetOrOpen(const std::string& name) {
  if (!ValidDatabaseName(name)) {
    return Status::Invalid("invalid database name '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dbs_.find(name);
  if (it != dbs_.end()) return it->second.get();
  TDB_ASSIGN_OR_RETURN(auto db, Database::Open(root_ + "/" + name, options_));
  Database* raw = db.get();
  dbs_.emplace(name, std::move(db));
  return raw;
}

std::vector<std::string> DatabaseRegistry::OpenNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, _] : dbs_) names.push_back(name);
  return names;
}

Server::Server(DatabaseRegistry* registry, ServerOptions options)
    : registry_(registry), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (!options_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::IOError("socket: " + std::string(strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::Invalid("unix socket path too long");
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_path.c_str());  // stale socket from a dead server
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::IOError("bind " + options_.unix_path + ": " +
                             strerror(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::IOError("socket: " + std::string(strerror(errno)));
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::IOError("bind port " +
                             std::to_string(options_.tcp_port) + ": " +
                             strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::IOError("listen: " + std::string(strerror(errno)));
  }
  if (options_.epoll) return StartEpoll();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

Status Server::StartEpoll() {
  // Nonblocking listener: one readiness event drains every pending accept.
  const int lfd = listen_fd_.load();
  const int flags = ::fcntl(lfd, F_GETFL, 0);
  ::fcntl(lfd, F_SETFL, flags | O_NONBLOCK);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    return Status::IOError("epoll_create1: " + std::string(strerror(errno)));
  }
  wake_fd_ = ::eventfd(0, 0);
  if (wake_fd_ < 0) {
    return Status::IOError("eventfd: " + std::string(strerror(errno)));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, lfd, &ev) != 0) {
    return Status::IOError("epoll_ctl listener: " +
                           std::string(strerror(errno)));
  }
  ev = epoll_event{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::IOError("epoll_ctl wake: " + std::string(strerror(errno)));
  }

  int workers = options_.epoll_workers;
  if (workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = std::clamp(static_cast<int>(hw), 2, 16);
  }
  // Queue bound: enough that a burst of ready connections does not stall
  // the loop, small enough that backpressure reaches the clients.
  pool_ = std::make_unique<TaskPool>(workers,
                                     static_cast<size_t>(workers) * 4);
  accept_thread_ = std::thread([this] { EpollLoop(); });
  return Status::OK();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  if (options_.epoll) {
    // Poke the event loop awake; it returns on the wake tag.
    if (wake_fd_ >= 0) {
      const uint64_t one = 1;
      (void)::write(wake_fd_, &one, sizeof(one));
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    // Fail any worker parked mid-frame on a slow connection, then drain
    // and join the pool before touching shared state further.
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      for (auto& [fd, conn] : epoll_conns_) ::shutdown(fd, SHUT_RDWR);
    }
    if (pool_ != nullptr) pool_->Shutdown();
    // Workers tore down the connections they owned; the rest were idle.
    std::map<int, std::unique_ptr<Conn>> leftovers;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      leftovers.swap(epoll_conns_);
    }
    for (auto& [fd, conn] : leftovers) ::close(fd);
    leftovers.clear();  // sessions die before their databases
    const int lfd = listen_fd_.exchange(-1);
    if (lfd >= 0) ::close(lfd);
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
      epoll_fd_ = -1;
    }
    if (wake_fd_ >= 0) {
      ::close(wake_fd_);
      wake_fd_ = -1;
    }
    if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
    return;
  }
  // shutdown() wakes the blocked accept(); close() alone does not on all
  // platforms.
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A connection thread blocked in ReadFrame on a still-connected
    // client would never join; fail its read so it exits.
    for (int cfd : conn_fds_) ::shutdown(cfd, SHUT_RDWR);
    conns.swap(conns_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void Server::AcceptLoop() {
  for (;;) {
    const int listen_fd = listen_fd_.load();
    if (listen_fd < 0) return;  // Stop() already closed the listener
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop()
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    conn_fds_.push_back(fd);
    conns_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void Server::ServeConnection(int fd) {
  // Connection state: no session until a successful kHello.
  Conn conn(fd);
  for (;;) {
    Frame frame;
    Status read = ReadFrame(fd, &frame);
    if (!read.ok()) break;  // closed or torn — either way, hang up
    if (!DispatchFrame(conn, frame)) break;
  }
  {
    // Deregister before closing so Stop() never shuts down a recycled
    // descriptor number.
    std::lock_guard<std::mutex> lock(mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
  }
  ::close(fd);
}

bool Server::DispatchFrame(Conn& conn, const Frame& frame) {
  const int fd = conn.fd;
  std::unique_ptr<Session>& session = conn.session;
  Status error;
  Status wrote;
  switch (frame.type) {
    case FrameType::kHello: {
      Decoder dec(frame.payload);
      std::string name;
      if (!dec.GetString(&name) || !dec.AtEnd()) {
        error = Status::Corruption("malformed hello frame");
        break;
      }
      auto db = registry_->GetOrOpen(name);
      if (!db.ok()) {
        error = db.status();
        break;
      }
      session = (*db)->CreateSession();
      wrote = WriteFrame(fd, FrameType::kOk, {});
      break;
    }
    case FrameType::kExecute: {
      if (session == nullptr) {
        error = Status::Invalid("execute before hello");
        break;
      }
      Decoder dec(frame.payload);
      std::string script;
      if (!dec.GetString(&script) || !dec.AtEnd()) {
        error = Status::Corruption("malformed execute frame");
        break;
      }
      auto results = session->ExecuteScript(script);
      if (!results.ok()) {
        error = results.status();
        break;
      }
      std::vector<WireResult> wire;
      wire.reserve(results->size());
      for (const ExecResult& r : *results) wire.push_back(ToWireResult(r));
      wrote = WriteFrame(fd, FrameType::kResults, EncodeResults(wire));
      break;
    }
    case FrameType::kPrepare: {
      if (session == nullptr) {
        error = Status::Invalid("prepare before hello");
        break;
      }
      Decoder dec(frame.payload);
      std::string name, text;
      if (!dec.GetString(&name) || !dec.GetString(&text) || !dec.AtEnd()) {
        error = Status::Corruption("malformed prepare frame");
        break;
      }
      auto res = session->Prepare(name, text);
      if (!res.ok()) {
        error = res.status();
        break;
      }
      wrote = WriteFrame(fd, FrameType::kResults,
                         EncodeResults({ToWireResult(*res)}));
      break;
    }
    case FrameType::kExecPrepared: {
      if (session == nullptr) {
        error = Status::Invalid("execute before hello");
        break;
      }
      Decoder dec(frame.payload);
      std::string name;
      uint32_t argc = 0;
      if (!dec.GetString(&name) || !dec.GetU32(&argc)) {
        error = Status::Corruption("malformed execute-prepared frame");
        break;
      }
      std::vector<Value> args;
      args.reserve(argc);
      bool ok = true;
      for (uint32_t i = 0; i < argc; ++i) {
        Value v;
        if (!DecodeValue(&dec, &v)) {
          ok = false;
          break;
        }
        args.push_back(std::move(v));
      }
      if (!ok || !dec.AtEnd()) {
        error = Status::Corruption("malformed execute-prepared frame");
        break;
      }
      auto res = session->ExecutePrepared(name, std::move(args));
      if (!res.ok()) {
        error = res.status();
        break;
      }
      wrote = WriteFrame(fd, FrameType::kResults,
                         EncodeResults({ToWireResult(*res)}));
      break;
    }
    case FrameType::kClose: {
      if (session == nullptr) {
        error = Status::Invalid("close before hello");
        break;
      }
      Decoder dec(frame.payload);
      std::string name;
      if (!dec.GetString(&name) || !dec.AtEnd()) {
        error = Status::Corruption("malformed close frame");
        break;
      }
      auto res = session->DeallocatePrepared(name);
      if (!res.ok()) {
        error = res.status();
        break;
      }
      wrote = WriteFrame(fd, FrameType::kResults,
                         EncodeResults({ToWireResult(*res)}));
      break;
    }
    case FrameType::kPinAsOf: {
      if (session == nullptr) {
        error = Status::Invalid("pin before hello");
        break;
      }
      Decoder dec(frame.payload);
      uint8_t has_pin;
      int64_t secs = 0;
      if (!dec.GetU8(&has_pin) ||
          (has_pin != 0 && !dec.GetI64(&secs)) || !dec.AtEnd()) {
        error = Status::Corruption("malformed pin frame");
        break;
      }
      if (has_pin != 0) {
        session->PinAsOf(TimePoint(static_cast<int32_t>(secs)));
      } else {
        session->PinAsOf(std::nullopt);
      }
      wrote = WriteFrame(fd, FrameType::kOk, {});
      break;
    }
    case FrameType::kPing:
      wrote = WriteFrame(fd, FrameType::kOk, {});
      break;
    default:
      error = Status::Invalid("unexpected frame type");
      break;
  }
  if (!error.ok()) {
    // Protocol errors are answered, not fatal: the client decides
    // whether to continue (statement errors) or give up (corruption).
    wrote = WriteFrame(fd, FrameType::kError, EncodeStatus(error));
  }
  return wrote.ok();
}

void Server::EpollLoop() {
  epoll_event events[64];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        AcceptReady();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t v;
        (void)!::read(wake_fd_, &v, sizeof(v));
        return;  // the only wake is Stop()
      }
      // EPOLLONESHOT already disarmed the connection: exactly one worker
      // owns it until HandleConnReadable re-arms or tears it down, which
      // keeps its Session strictly single-threaded.
      Conn* conn = static_cast<Conn*>(events[i].data.ptr);
      if (!pool_->Submit([this, conn] { HandleConnReadable(conn); })) return;
    }
  }
}

void Server::AcceptReady() {
  for (;;) {
    const int lfd = listen_fd_.load();
    if (lfd < 0) return;
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (drained) or listener closed
    // The accepted socket stays blocking: a worker reads one whole frame
    // synchronously once epoll reports readability.
    auto conn = std::make_unique<Conn>(fd);
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      epoll_conns_.emplace(fd, std::move(conn));
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
    ev.data.ptr = raw;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) CloseConn(raw);
  }
}

void Server::HandleConnReadable(Conn* conn) {
  Frame frame;
  Status read = ReadFrame(conn->fd, &frame);
  if (!read.ok() || !DispatchFrame(*conn, frame)) {
    CloseConn(conn);
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
  ev.data.ptr = conn;
  // Re-armed under conn_mu_, which CloseConn takes before it closes the
  // descriptor.  The kernel already orders this re-arm before the worker
  // that handles the next event (and may close the connection), but
  // ThreadSanitizer does not see that order through EPOLL_CTL_MOD.
  int rearmed = 0;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    rearmed = ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
  if (rearmed != 0) CloseConn(conn);
}

void Server::CloseConn(Conn* conn) {
  const int fd = conn->fd;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  // Remove from the table before closing so Stop() never shuts down a
  // recycled descriptor number.
  std::unique_ptr<Conn> owned;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    auto it = epoll_conns_.find(fd);
    if (it != epoll_conns_.end()) {
      owned = std::move(it->second);
      epoll_conns_.erase(it);
    }
  }
  ::close(fd);
}

}  // namespace net
}  // namespace tdb
