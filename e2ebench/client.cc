// e2e_client — the benchmark's open-loop load client for `largeea_cli serve`,
// and the launcher of every other program the benchmark times.
//
//   e2e_client --wait <result> -- <argv...>
//
// Runs argv to completion with this process's stdin, stdout and stderr, and
// writes {"exit":..,"rss_kb":..,"wall_ns":..} to <result>: the exit code,
// the peak RSS from wait4 and the time from spawn to reap. A child's
// ru_maxrss starts from its parent's high-water mark, and the benchmark's
// Python process outgrows some of the programs it runs; spawned from this
// small process, the peak RSS is the program's own.
//
//   e2e_client -- <server argv...>
//
// Spawns the server with its stdin/stdout/stderr on pipes, waits for the
// "ready on stdin" line on its stderr and prints {"ready_ns":..,
// "server_pid":..} (the time from spawn to that line is the index load
// time), then takes commands on its own stdin, one per line:
//
//   play <schedule> <result>   plays a schedule file and writes one result
//                              row per request; prints
//                              {"server_gone":true|false}
//   quit                       closes the server's stdin, reaps it, prints
//                              {"exit":..,"rss_kb":..} and exits
//
// Schedule rows are "<due_us>\t<request line>", due times relative to the
// start of the step and non-decreasing. Every request line gets exactly one
// response line from the server, in order, so the i-th response answers the
// i-th request. The main thread is the sender: it sleeps until the next due
// time and writes every request that is due in one write(2). Its timer
// slack is 1 ns, and before a gap of at least kSpinGap it wakes kSpinLead
// early and spins to the due time, so its own wake-up delay stays out of
// the latencies at low rates; at high rates it only sleeps. A single
// receiver thread timestamps responses as they are read. Latency is
// measured by the caller from the due time, not the send time, so a sender
// that falls behind cannot hide queueing delay (its lateness is reported).
//
// Result rows: "<due_ns>\t<send_ns>\t<recv_ns>\t<ok>\t<version>\t<ids>",
// times in nanoseconds since the start of the step, ids the "target"
// values of the response, comma-separated, in response order ("-" when
// there are none).
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::chrono::microseconds kSpinGap{200};
constexpr std::chrono::microseconds kSpinLead{100};

int64_t NanosSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "e2e_client: %s\n", message.c_str());
  std::exit(1);
}

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

struct Server {
  pid_t pid = -1;
  int in = -1;   // we write requests here
  int out = -1;  // we read responses here
  int err = -1;  // ready line and diagnostics
  std::string pending_out;  // bytes read past the last full response line
};

Server Spawn(const std::vector<std::string>& argv) {
  int in_pipe[2], out_pipe[2], err_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0 ||
      pipe2(err_pipe, O_CLOEXEC) != 0) {
    Die("pipe2 failed");
  }
  // Room for ~1 s of requests at the reference rate, so a stalled server
  // (a swap in progress) backs requests up in the pipe, not in the sender.
  (void)fcntl(in_pipe[1], F_SETPIPE_SZ, 1 << 20);
  (void)fcntl(out_pipe[1], F_SETPIPE_SZ, 1 << 20);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  posix_spawn_file_actions_adddup2(&actions, err_pipe[1], 2);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  Server server;
  const int rc = posix_spawn(&server.pid, args[0], &actions, nullptr,
                             args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) Die("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  close(in_pipe[0]);
  close(out_pipe[1]);
  close(err_pipe[1]);
  server.in = in_pipe[1];
  server.out = out_pipe[0];
  server.err = err_pipe[0];
  return server;
}

// Reads the server's stderr until the ready line; false on EOF first.
bool WaitReady(const Server& server, std::string& log) {
  char buf[4096];
  while (log.find("ready on stdin") == std::string::npos) {
    const ssize_t n = read(server.err, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    log.append(buf, static_cast<size_t>(n));
  }
  return true;
}

struct Request {
  int64_t due_ns = 0;
  std::string line;  // with trailing '\n'
};

struct Result {
  int64_t send_ns = -1;
  int64_t recv_ns = -1;
  bool ok = false;
  int64_t version = -1;
  std::string ids;
};

std::vector<Request> ReadSchedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read schedule " + path);
  std::vector<Request> requests;
  std::string row;
  while (std::getline(in, row)) {
    if (row.empty()) continue;
    const size_t tab = row.find('\t');
    if (tab == std::string::npos) Die("malformed schedule row: " + row);
    Request r;
    r.due_ns = 1000 * std::strtoll(row.c_str(), nullptr, 10);
    r.line = row.substr(tab + 1) + "\n";
    requests.push_back(std::move(r));
  }
  return requests;
}

// Integer following `key` at or after `from`, or -1.
int64_t IntAfter(const std::string& line, const char* key, size_t from = 0) {
  const size_t at = line.find(key, from);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + std::strlen(key), nullptr, 10);
}

void Digest(const std::string& line, Result& result) {
  result.ok = line.rfind("{\"ok\":true", 0) == 0;
  result.version = IntAfter(line, "\"version\":");
  // Entity names are JSON-escaped, so the literal "target": can only be
  // a key.
  static const char kTarget[] = "\"target\":";
  std::string ids;
  for (size_t at = line.find(kTarget); at != std::string::npos;
       at = line.find(kTarget, at + 1)) {
    if (!ids.empty()) ids += ',';
    ids += std::to_string(IntAfter(line, kTarget, at));
  }
  result.ids = ids.empty() ? "-" : ids;
}

// Receives results.size() response lines; runs on its own thread. A line
// arrives when the read(2) that completes it returns.
void Receive(Server& server, Clock::time_point t0,
             std::vector<Result>& results, bool& eof) {
  size_t next = 0;
  int64_t read_ns = 0;
  std::string& buffer = server.pending_out;
  std::vector<char> chunk(1 << 16);
  while (true) {
    size_t start = 0;
    for (size_t nl; next < results.size() &&
                    (nl = buffer.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      Digest(buffer.substr(start, nl - start), results[next]);
      results[next++].recv_ns = read_ns;
    }
    buffer.erase(0, start);
    if (next == results.size()) return;
    const ssize_t n = read(server.out, chunk.data(), chunk.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      eof = true;
      return;
    }
    read_ns = NanosSince(t0);
    buffer.append(chunk.data(), static_cast<size_t>(n));
  }
}

void Play(Server& server, const std::string& schedule_path,
          const std::string& result_path) {
  const std::vector<Request> requests = ReadSchedule(schedule_path);
  std::vector<Result> results(requests.size());
  bool eof = false;
  // A millisecond of slack so the receiver is parked in read() before the
  // first request is due.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  std::thread receiver(
      [&] { Receive(server, t0, results, eof); });

  std::string batch;
  size_t i = 0;
  bool write_failed = false;
  while (i < requests.size()) {
    const Clock::time_point due =
        t0 + std::chrono::nanoseconds(requests[i].due_ns);
    if (const Clock::time_point now = Clock::now(); now < due) {
      if (due - now >= kSpinGap) {
        std::this_thread::sleep_until(due - kSpinLead);
        while (Clock::now() < due) {
        }
      } else {
        std::this_thread::sleep_until(due);
      }
    }
    const int64_t now = NanosSince(t0);
    batch.clear();
    while (i < requests.size() && requests[i].due_ns <= now) {
      batch += requests[i].line;
      results[i].send_ns = now;
      ++i;
    }
    if (!WriteAll(server.in, batch.data(), batch.size())) {
      write_failed = true;
      break;
    }
  }
  if (write_failed) {
    // Unblock the receiver: the server is gone, its stdout will hit EOF.
    close(server.in);
    server.in = -1;
  }
  receiver.join();

  std::ofstream out(result_path);
  if (!out) Die("cannot write " + result_path);
  for (size_t r = 0; r < requests.size(); ++r) {
    const Result& res = results[r];
    out << requests[r].due_ns << '\t' << res.send_ns << '\t' << res.recv_ns
        << '\t' << (res.ok ? 1 : 0) << '\t' << res.version << '\t'
        << (res.ids.empty() ? "-" : res.ids) << '\n';
  }
  out.close();
  std::printf("{\"server_gone\":%s}\n",
              (eof || write_failed) ? "true" : "false");
  std::fflush(stdout);
}

int Quit(Server& server) {
  if (server.in >= 0) close(server.in);
  server.in = -1;
  // Drain whatever the server still writes so it can never block on a
  // full pipe while exiting.
  char buf[4096];
  while (read(server.out, buf, sizeof(buf)) > 0) {
  }
  std::string log;
  for (ssize_t n; (n = read(server.err, buf, sizeof(buf))) > 0;) {
    log.append(buf, static_cast<size_t>(n));
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(server.pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  if (code != 0) std::fprintf(stderr, "e2e_client: server log:\n%s", log.c_str());
  std::printf("{\"exit\":%d,\"rss_kb\":%ld}\n", code, usage.ru_maxrss);
  std::fflush(stdout);
  return code == 0 ? 0 : 1;
}

int WaitRun(const std::string& result_path,
            const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const Clock::time_point start = Clock::now();
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], nullptr, nullptr, args.data(),
                             environ);
  if (rc != 0) Die("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  const int64_t wall_ns = NanosSince(start);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::ofstream out(result_path);
  out << "{\"exit\":" << code << ",\"rss_kb\":" << usage.ru_maxrss
      << ",\"wall_ns\":" << wall_ns << "}\n";
  out.close();
  if (!out) Die("cannot write " + result_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> server_argv;
  std::string wait_result;
  bool after_dashes = false;
  for (int i = 1; i < argc; ++i) {
    if (after_dashes) {
      server_argv.emplace_back(argv[i]);
    } else if (std::strcmp(argv[i], "--") == 0) {
      after_dashes = true;
    } else if (std::strcmp(argv[i], "--wait") == 0 && i + 1 < argc) {
      wait_result = argv[++i];
    } else {
      Die(std::string("unknown argument ") + argv[i]);
    }
  }
  if (server_argv.empty()) {
    Die("usage: e2e_client [--wait <result>] -- <argv...>");
  }
  if (!wait_result.empty()) return WaitRun(wait_result, server_argv);
  signal(SIGPIPE, SIG_IGN);

  const Clock::time_point spawned = Clock::now();
  Server server = Spawn(server_argv);
  std::string log;
  if (!WaitReady(server, log)) {
    std::fprintf(stderr, "e2e_client: server exited before ready:\n%s",
                 log.c_str());
    Quit(server);
    return 1;
  }
  std::printf("{\"ready_ns\":%lld,\"server_pid\":%d}\n",
              static_cast<long long>(NanosSince(spawned)),
              static_cast<int>(server.pid));
  std::fflush(stdout);
  // Set after the spawn, so the server keeps its own. The receiver thread
  // inherits it.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  std::string command;
  while (std::getline(std::cin, command)) {
    std::istringstream words(command);
    std::string verb, schedule, result;
    words >> verb;
    if (verb == "play" && (words >> schedule >> result)) {
      Play(server, schedule, result);
    } else if (verb == "quit") {
      return Quit(server);
    } else {
      Die("unknown command: " + command);
    }
  }
  return Quit(server);
}
