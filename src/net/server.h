#ifndef CHRONOQUEL_NET_SERVER_H_
#define CHRONOQUEL_NET_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "exec/worker_pool.h"
#include "net/protocol.h"
#include "util/status.h"

namespace tdb {
namespace net {

/// Maps database names to open Database instances, opening each under a
/// configured root directory on first use.  All connections to the same
/// name share one Database (and therefore one lock table, journal, and
/// logical clock); each connection gets its own Session.
class DatabaseRegistry {
 public:
  /// `root` is the directory databases live under (<root>/<name>);
  /// `options` is the template every database opens with (env, durability,
  /// exec knobs — start_time/clock state comes from each database's own
  /// persisted clock).
  DatabaseRegistry(std::string root, DatabaseOptions options);

  /// The database named `name`, opened on first use.  Names are
  /// restricted to [A-Za-z0-9_-]+ so a wire-supplied name can never
  /// escape the root directory.
  Result<Database*> GetOrOpen(const std::string& name);

  /// Databases currently open, in name order.
  std::vector<std::string> OpenNames() const;

 private:
  std::string root_;
  DatabaseOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Database>> dbs_;
};

struct ServerOptions {
  /// Unix-domain socket path (the primary transport: no ports to
  /// coordinate, works in every sandbox).  Empty selects TCP instead.
  std::string unix_path;
  /// TCP port, used when unix_path is empty; 0 picks an ephemeral port
  /// (read it back from port() after Start).
  int tcp_port = 0;
  /// Connection multiplexing.  Off (the default) dedicates one thread to
  /// every connection.  On, a single epoll event loop watches every
  /// connection and hands ready frames to a bounded worker pool, so N
  /// mostly-idle clients cost N file descriptors and a fixed thread count
  /// instead of N parked threads.
  bool epoll = false;
  /// Worker threads for epoll mode; 0 sizes from hardware concurrency
  /// (clamped to [2, 16]).
  int epoll_workers = 0;
};

/// The tquel server: accepts connections, speaks the wire protocol
/// (net/protocol.h), and runs every connection's statements through its
/// own Session — so concurrency, snapshot pinning, and group commit all
/// come from the service layer underneath, not from the server itself.
///
/// Two dispatch modes share one frame handler (DispatchFrame):
///
///  - thread-per-connection (default): each accepted socket gets a thread
///    that loops read-frame / dispatch, and a blocked writer parks its
///    thread on the relation lock exactly like an embedded caller would;
///  - epoll (ServerOptions::epoll): one event loop
///    thread owns the listener and every connection; a ready connection is
///    disarmed (EPOLLONESHOT) and handed to a bounded TaskPool worker,
///    which reads exactly one frame, dispatches it, and re-arms.  One
///    in-flight frame per connection preserves the Session contract
///    (sessions are single-threaded) without per-connection locks.
class Server {
 public:
  Server(DatabaseRegistry* registry, ServerOptions options);
  ~Server();

  /// Binds, listens, and starts the accept thread (or the event loop).
  Status Start();

  /// Stops accepting, closes every live connection, joins all threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// The bound TCP port (after Start, TCP mode only).
  int port() const { return port_; }

 private:
  /// One connection's state, shared by both modes: the socket and the
  /// session established by its kHello.
  struct Conn {
    explicit Conn(int fd_in) : fd(fd_in) {}
    int fd;
    std::unique_ptr<Session> session;
  };

  /// Handles one request frame: runs it against conn's session and writes
  /// the one response frame.  Returns false when the connection is beyond
  /// answering (write failed) and should be torn down.
  bool DispatchFrame(Conn& conn, const Frame& frame);

  // --- thread-per-connection mode ---
  void AcceptLoop();
  void ServeConnection(int fd);

  // --- epoll mode ---
  Status StartEpoll();
  void EpollLoop();
  void AcceptReady();
  /// Worker-side: one frame read + dispatch + re-arm (or teardown).
  void HandleConnReadable(Conn* conn);
  void CloseConn(Conn* conn);

  DatabaseRegistry* registry_;
  ServerOptions options_;
  /// Atomic: Stop() swaps in -1 and closes while AcceptLoop reads it.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread accept_thread_;  // accept loop or epoll event loop
  std::mutex mu_;  // guards conns_, conn_fds_, and stopping_
  bool stopping_ = false;
  std::vector<std::thread> conns_;
  /// Live connection sockets, so Stop() can shut them down and unblock
  /// their threads' frame reads; each thread deregisters its own fd
  /// before closing it.
  std::vector<int> conn_fds_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Stop() pokes the event loop awake
  std::unique_ptr<TaskPool> pool_;
  std::mutex conn_mu_;  // guards epoll_conns_
  std::map<int, std::unique_ptr<Conn>> epoll_conns_;
};

}  // namespace net
}  // namespace tdb

#endif  // CHRONOQUEL_NET_SERVER_H_
