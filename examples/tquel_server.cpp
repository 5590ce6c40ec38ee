// The tquel server: serves one or more database directories to concurrent
// clients over the length-prefixed wire protocol (src/net/protocol.h).
//
//   ./tquel_server --root=DIR [--socket=PATH | --port=N]
//                  [--durability=off|journal|sync] [--metrics]
//
// Databases live at <root>/<name> and open lazily on the first client
// hello naming them; every connection gets its own Session, so statement
// locking, snapshot reads, and journal group commit all come from the
// service layer.  The server runs until stdin closes or SIGINT/SIGTERM —
// scripts stop it by closing its stdin.
//
// The TDB_* engine levers (README) are read once at start-up and fixed for
// every database the server opens; TDB_SERVER_EPOLL=1 selects the epoll
// event loop instead of a thread per connection.

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "core/chronoquel.h"
#include "net/server.h"

using tdb::DatabaseOptions;
using tdb::net::DatabaseRegistry;
using tdb::net::Server;
using tdb::net::ServerOptions;

namespace {

volatile sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  // The TDB_* levers are read here, once, for every database the server
  // opens; flags below override them.
  DatabaseOptions db_options = DatabaseOptions::FromEnv();
  ServerOptions srv_options;
  const char* epoll = std::getenv("TDB_SERVER_EPOLL");
  srv_options.epoll = epoll != nullptr && std::string_view(epoll) != "0";
  std::string root;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--socket=", 0) == 0) {
      srv_options.unix_path = arg.substr(9);
    } else if (arg.rfind("--port=", 0) == 0) {
      srv_options.tcp_port = std::atoi(arg.c_str() + 7);
    } else if (arg == "--durability=off") {
      db_options.durability = tdb::DurabilityMode::kOff;
    } else if (arg == "--durability=journal") {
      db_options.durability = tdb::DurabilityMode::kJournal;
    } else if (arg == "--durability=sync") {
      db_options.durability = tdb::DurabilityMode::kJournalSync;
    } else if (arg == "--metrics") {
      db_options.metrics = true;
    } else {
      root.clear();
      break;
    }
  }
  if (root.empty() || (srv_options.unix_path.empty() &&
                       srv_options.tcp_port == 0)) {
    std::fprintf(stderr,
                 "usage: %s --root=DIR (--socket=PATH | --port=N)\n"
                 "          [--durability=off|journal|sync] [--metrics]\n",
                 argv[0]);
    return 1;
  }

  // Databases open at <root>/<name>; make sure the root itself exists so
  // the first hello doesn't fail on a missing parent directory.
  tdb::Status root_ok = tdb::Env::Default()->CreateDirIfMissing(root);
  if (!root_ok.ok()) {
    std::fprintf(stderr, "create root %s: %s\n", root.c_str(),
                 root_ok.ToString().c_str());
    return 1;
  }
  DatabaseRegistry registry(root, db_options);
  Server server(&registry, srv_options);
  tdb::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!srv_options.unix_path.empty()) {
    std::printf("tquel_server listening on %s (root %s)\n",
                srv_options.unix_path.c_str(), root.c_str());
  } else {
    std::printf("tquel_server listening on 127.0.0.1:%d (root %s)\n",
                server.port(), root.c_str());
  }
  std::fflush(stdout);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  // Park until stdin closes (scripted shutdown) or a signal arrives.
  char buf[256];
  while (g_stop == 0) {
    ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n <= 0 && errno != EINTR) break;
    if (g_stop != 0) break;
  }
  server.Stop();
  std::printf("tquel_server stopped\n");
  return 0;
}
