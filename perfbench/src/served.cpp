/// \file served.cpp
/// \brief Workload `served_mixed`: `leqa_server --listen` on loopback with
///        2 service workers, driven by 2 closed-loop client connections.
///
/// Set-up starts the server and warms its working set of 8 suite circuits
/// through the wire.  Each client then sends whole rounds of a seeded mix:
/// single-point `estimate`s with per-request params patches, small
/// `explore`s, `optimize` with a small move budget, and `stats`; every
/// request waits for its reply before the next is sent.  This is the only
/// workload where net framing, the wire codec, the service queue and the
/// pipeline's cache-hit path carry a real share of the time.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/engine.h"
#include "pipeline/pipeline.h"
#include "service/wire.h"
#include "stats.h"
#include "trace.h"
#include "util/json_value.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using leqa::util::JsonValue;

/// The working set, warmed during set-up.  The first three are the small
/// circuits explores run on; optimizes run on the first.
const std::vector<std::string> kWorkingSet = {
    "ham15",      "hwb20ps",         "gf2^20mult", "hwb50ps",
    "gf2^50mult", "mod1048576adder", "gf2^64mult"};
const std::vector<std::string> kSmallWorkingSet = {"ham15", "8bitadder", "gf2^16mult"};
constexpr std::size_t kSmallCircuitCount = 3;
constexpr int kOptimizeMoves = 150;

constexpr int kServiceWorkers = 2;
constexpr int kClients = 2;
constexpr int kSetupRepeats = 3;
constexpr int kTracedRounds = 4;

const std::vector<std::string>& working_set(const Options& options) {
    return options.small ? kSmallWorkingSet : kWorkingSet;
}

enum class Kind { Estimate, Explore, Optimize, Stats };

/// Requests per kind in one client round.
constexpr int kRoundEstimates = 14;
constexpr int kRoundExplores = 3;
constexpr int kRoundOptimizes = 2;
constexpr int kRoundStats = 1;

struct Request {
    Kind kind = Kind::Estimate;
    std::uint64_t id = 0;
    std::size_t circuit = 0;
    int nc = 5;
    double v = 0.001;
    bool torus = false;
    std::string line;
};

struct Exchange {
    Request request;
    std::string response;
    double rtt_s = 0.0;
};

// --------------------------------------------------------------- server --

/// A leqa_server child process on an ephemeral loopback port.
class ServerProcess {
public:
    explicit ServerProcess(const Options& options) {
        int out[2];
        if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
        const std::string binary = options.bin_dir + "/leqa_server";
        const std::string threads = std::to_string(kServiceWorkers);
        std::fflush(stdout);
        std::fflush(stderr);
        pid_ = ::fork();
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(out[1], STDOUT_FILENO);
            ::close(out[0]);
            ::close(out[1]);
            ::execl(binary.c_str(), binary.c_str(), "--listen", "0", "--threads",
                    threads.c_str(), static_cast<char*>(nullptr));
            std::fprintf(stderr, "perfbench: cannot run %s: %s\n", binary.c_str(),
                         std::strerror(errno));
            ::_exit(127);
        }
        ::close(out[1]);
        if (pid_ < 0) {
            ::close(out[0]);
            throw std::runtime_error("fork failed");
        }
        // The server announces "listening on <host>:<port>" on stdout.
        std::string announce;
        char c = 0;
        while (::read(out[0], &c, 1) == 1 && c != '\n') announce.push_back(c);
        ::close(out[0]);
        const std::size_t colon = announce.rfind(':');
        if (announce.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
            stop();
            throw std::runtime_error("leqa_server did not start: '" + announce + "'");
        }
        port_ = static_cast<std::uint16_t>(std::stoi(announce.substr(colon + 1)));
    }
    ~ServerProcess() { stop(); }
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;
    ServerProcess(ServerProcess&&) = delete;
    ServerProcess& operator=(ServerProcess&&) = delete;

    [[nodiscard]] std::uint16_t port() const { return port_; }

    /// The server's peak resident set (VmHWM) in MB.
    [[nodiscard]] double peak_rss_mb() const {
        std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
        std::string key;
        while (status >> key) {
            if (key == "VmHWM:") {
                double kb = 0.0;
                status >> kb;
                return kb / 1024.0;
            }
            status.ignore(1 << 12, '\n');
        }
        return 0.0;
    }

    /// Graceful stop (SIGTERM drains); SIGKILL after 10 s.
    void stop() {
        if (pid_ <= 0) return;
        ::kill(pid_, SIGTERM);
        int status = 0;
        for (int i = 0; i < 1000; ++i) {
            const pid_t done = ::waitpid(pid_, &status, WNOHANG);
            if (done == pid_ || (done < 0 && errno != EINTR)) {
                pid_ = -1;
                return;
            }
            ::usleep(10000);
        }
        ::kill(pid_, SIGKILL);
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
    }

private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

/// One closed-loop NDJSON connection.
class Client {
public:
    explicit Client(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) throw std::runtime_error("socket failed");
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
            ::close(fd_);
            throw std::runtime_error(std::string("connect failed: ") + std::strerror(errno));
        }
    }
    ~Client() { ::close(fd_); }
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;
    Client(Client&&) = delete;
    Client& operator=(Client&&) = delete;

    /// Send one request line and wait for one response line.
    std::string round_trip(const std::string& line) {
        std::string framed = line + "\n";
        std::size_t sent = 0;
        while (sent < framed.size()) {
            const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("send failed");
            sent += static_cast<std::size_t>(n);
        }
        for (;;) {
            const std::size_t newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                std::string reply = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                return reply;
            }
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("connection closed");
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

private:
    int fd_ = -1;
    std::string buffer_;
};

// ------------------------------------------------------------- requests --

std::string number(double value) {
    char text[64];
    std::snprintf(text, sizeof text, "%.17g", value);
    return text;
}

std::string estimate_line(std::uint64_t id, const std::string& circuit, int nc, double v,
                          bool torus) {
    return "{\"id\":" + std::to_string(id) + ",\"op\":\"estimate\",\"source\":\"bench:" +
           circuit + "\",\"params\":{\"nc\":" + std::to_string(nc) + ",\"v\":" + number(v) +
           ",\"topology\":\"" + (torus ? "torus" : "grid") + "\"}}";
}

/// One client's round: the mix in a seeded order, ids continuing from
/// \p next_id.
std::vector<Request> make_round(const Options& options, std::mt19937_64& rng,
                                std::uint64_t& next_id) {
    static const double kV[] = {0.0005, 0.001, 0.002, 0.004};
    static const int kSides[] = {24, 32, 40, 48};
    const auto& set = working_set(options);
    std::vector<Kind> kinds;
    kinds.insert(kinds.end(), kRoundEstimates, Kind::Estimate);
    kinds.insert(kinds.end(), kRoundExplores, Kind::Explore);
    kinds.insert(kinds.end(), kRoundOptimizes, Kind::Optimize);
    kinds.insert(kinds.end(), kRoundStats, Kind::Stats);
    std::shuffle(kinds.begin(), kinds.end(), rng);

    std::vector<Request> round;
    for (Kind kind : kinds) {
        Request r;
        r.kind = kind;
        r.id = next_id++;
        const std::string id = std::to_string(r.id);
        switch (kind) {
        case Kind::Estimate:
            r.circuit = rng() % set.size();
            r.nc = 1 + static_cast<int>(rng() % 8);
            r.v = kV[rng() % std::size(kV)];
            r.torus = rng() % 2 == 1;
            r.line = estimate_line(r.id, set[r.circuit], r.nc, r.v, r.torus);
            break;
        case Kind::Explore: {
            r.circuit = rng() % kSmallCircuitCount;
            const std::size_t side = rng() % (std::size(kSides) - 1);
            const int nc = 1 + static_cast<int>(rng() % 4);
            const double v = kV[rng() % (std::size(kV) - 1)];
            r.line = "{\"id\":" + id + ",\"op\":\"explore\",\"source\":\"bench:" +
                     set[r.circuit] + "\",\"topologies\":[\"grid\",\"torus\"],\"sides\":[" +
                     std::to_string(kSides[side]) + "," + std::to_string(kSides[side + 1]) +
                     "],\"nc\":[" + std::to_string(nc) + "," + std::to_string(nc + 4) +
                     "],\"v\":[" + number(v) + "," + number(2 * v) + "],\"threads\":1}";
            break;
        }
        case Kind::Optimize:
            r.circuit = 0;
            r.line = "{\"id\":" + id + ",\"op\":\"optimize\",\"source\":\"bench:" +
                     set[r.circuit] + "\",\"moves\":" + std::to_string(kOptimizeMoves) +
                     ",\"seed\":" +
                     std::to_string(1 + rng() % 1000) + ",\"mode\":\"anneal\"}";
            break;
        case Kind::Stats:
            r.line = "{\"id\":" + id + ",\"op\":\"stats\"}";
            break;
        }
        round.push_back(std::move(r));
    }
    return round;
}

/// Start a server and warm its working set; returns the seconds from
/// process start until every warm reply arrived, and each circuit's FT
/// op count.
double start_and_warm(const Options& options, std::optional<ServerProcess>& server,
                      std::vector<double>& ft_ops, Checker& checker) {
    const auto start = Clock::now();
    server.emplace(options);
    Client client(server->port());
    const auto& set = working_set(options);
    ft_ops.assign(set.size(), 0.0);
    for (std::size_t c = 0; c < set.size(); ++c) {
        const std::string reply = client.round_trip(estimate_line(c + 1, set[c], 5, 0.001, false));
        check_response(c + 1, reply, checker);
        const JsonValue doc = leqa::util::json_parse(reply);
        if (const JsonValue* result = doc.find("result")) {
            ft_ops[c] = result->at("circuit").at("ft_ops").as_number();
        }
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Run the clients: whole rounds until \p seconds pass (or exactly
/// \p fixed_rounds rounds each when non-zero).  Returns every exchange;
/// \p wall_s receives the phase's wall time.
std::vector<Exchange> drive(const Options& options, std::uint16_t port, double seconds,
                            int fixed_rounds, double& wall_s, Checker& checker) {
    std::vector<std::vector<Exchange>> per_client(kClients);
    std::vector<std::string> errors(kClients);
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (int k = 0; k < kClients; ++k) {
        threads.emplace_back([&, k] {
            try {
                Client client(port);
                std::mt19937_64 rng(options.seed * 1000003ULL + static_cast<std::uint64_t>(k));
                std::uint64_t next_id = 1;
                for (int round = 0;; ++round) {
                    if (fixed_rounds > 0 ? round >= fixed_rounds
                                         : std::chrono::duration<double>(Clock::now() - start)
                                                   .count() >= seconds && round > 0) {
                        break;
                    }
                    for (Request& r : make_round(options, rng, next_id)) {
                        const auto sent = Clock::now();
                        std::string reply = client.round_trip(r.line);
                        const double rtt = std::chrono::duration<double>(Clock::now() - sent).count();
                        per_client[k].push_back({std::move(r), std::move(reply), rtt});
                    }
                }
            } catch (const std::exception& e) {
                errors[k] = e.what();
            }
        });
    }
    for (std::thread& t : threads) t.join();
    wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    std::vector<Exchange> all;
    for (int k = 0; k < kClients; ++k) {
        checker.expect(errors[k].empty(), "client " + std::to_string(k) + ": " + errors[k]);
        for (Exchange& e : per_client[k]) all.push_back(std::move(e));
    }
    return all;
}

/// In-process session over the working set, for the equality checks and
/// the traced per-layer probes.
struct InProcess {
    leqa::pipeline::Pipeline pipeline;
    std::map<std::tuple<std::size_t, int, double, bool>, leqa::pipeline::EstimationResult> memo;

    const leqa::pipeline::EstimationResult& run(const Options& options, const Request& r) {
        const auto key = std::make_tuple(r.circuit, r.nc, r.v, r.torus);
        auto it = memo.find(key);
        if (it == memo.end()) {
            leqa::pipeline::EstimationRequest request(
                leqa::pipeline::CircuitSource::from_bench(working_set(options)[r.circuit]));
            request.params = params_of(r);
            it = memo.emplace(key, pipeline.run(request)).first;
        }
        return it->second;
    }

    static leqa::fabric::PhysicalParams params_of(const Request& r) {
        leqa::fabric::PhysicalParams params;
        params.nc = r.nc;
        params.v = r.v;
        params.topology = r.torus ? leqa::fabric::TopologyKind::Torus
                                  : leqa::fabric::TopologyKind::Grid;
        return params;
    }
};

/// Check every exchange; returns the number of jobs (non-stats requests).
std::uint64_t check_exchanges(const Options& options, const std::vector<Exchange>& all,
                              InProcess& local, Checker& checker) {
    std::uint64_t jobs = 0;
    for (const Exchange& e : all) {
        check_response(e.request.id, e.response, checker);
        if (e.request.kind != Kind::Stats) ++jobs;
        if (e.request.kind != Kind::Estimate && e.request.kind != Kind::Optimize) continue;
        try {
            const JsonValue result = leqa::util::json_parse(e.response).at("result");
            const std::string label = working_set(options)[e.request.circuit];
            if (e.request.kind == Kind::Estimate) {
                const double served = result.at("estimate").at("latency_us").as_number();
                check_wire_equal(served, local.run(options, e.request).estimate->latency_us,
                                 label, checker);
            } else {
                const JsonValue& opt = result.at("optimize");
                check_optimize(opt.at("initial_latency_us").as_number(),
                               opt.at("final_latency_us").as_number(), label, checker);
            }
        } catch (const std::exception& ex) {
            checker.expect(false, std::string("malformed result: ") + ex.what());
        }
    }
    return jobs;
}

/// Final stats through the wire: completed == jobs sent (warm-up included).
JsonValue final_stats(std::uint16_t port, std::uint64_t jobs_sent, Checker& checker) {
    Client client(port);
    const std::string reply = client.round_trip("{\"id\":1,\"op\":\"stats\"}");
    check_response(1, reply, checker);
    JsonValue stats = leqa::util::json_parse(reply).at("result").at("stats");
    check_completed(static_cast<std::uint64_t>(stats.at("completed").as_number()), jobs_sent,
                    checker);
    return stats;
}


constexpr double kExplorePoints = 16.0; // 2 topologies x 2 sides x 2 Nc x 2 v

} // namespace

RunResult run_served_mixed(const Options& options, Checker& checker) {
    RunResult out;
    std::optional<ServerProcess> server;
    std::vector<double> ft_ops;
    std::vector<double> setups;
    for (int i = 0; i < kSetupRepeats; ++i) {
        server.reset();
        setups.push_back(start_and_warm(options, server, ft_ops, checker));
    }

    double wall_s = 0.0;
    const std::vector<Exchange> all =
        drive(options, server->port(), options.seconds, 0, wall_s, checker);
    const double peak_rss = server->peak_rss_mb();

    InProcess local;
    const std::uint64_t jobs = check_exchanges(options, all, local, checker);
    (void)final_stats(server->port(), jobs + working_set(options).size(), checker);
    server.reset();

    std::vector<double> rtt;
    std::vector<double> ns_per_ft_op;
    double points = 0.0;
    double ft_op_points = 0.0;
    for (const Exchange& e : all) {
        rtt.push_back(e.rtt_s);
        const double ops = ft_ops[e.request.circuit];
        if (e.request.kind == Kind::Estimate) {
            ns_per_ft_op.push_back(e.rtt_s * 1e9 / ops);
            points += 1.0;
            ft_op_points += ops;
        } else if (e.request.kind == Kind::Explore) {
            points += kExplorePoints;
            ft_op_points += kExplorePoints * ops;
        }
    }
    out.attempted = all.size();
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss, "MB");
    add_median_and_tail(out, "op_p50_s", "op_tail_s", rtt, "s");
    add_median_and_tail(out, "ns_per_ft_op_p50", "ns_per_ft_op_tail", ns_per_ft_op, "ns");
    out.add("ft_ops_per_s", ft_op_points / wall_s, "1/s");
    out.add("points_per_s", points / wall_s, "1/s");
    out.add("requests_per_s", static_cast<double>(all.size()) / wall_s, "1/s");
    const char* kind_names[] = {"estimate", "explore", "optimize", "stats"};
    for (int k = 0; k < 4; ++k) {
        std::vector<double> kind_rtt;
        for (const Exchange& e : all) {
            if (static_cast<int>(e.request.kind) == k) kind_rtt.push_back(e.rtt_s);
        }
        out.notes.push_back(std::string(kind_names[k]) + ": " + std::to_string(kind_rtt.size()) +
                            " requests, median round trip " + number(median(kind_rtt)) + " s");
    }
    out.notes.push_back("served_mixed: " + std::to_string(all.size()) + " requests over " +
                        std::to_string(kClients) + " connections in " + number(wall_s) + " s");
    return out;
}

RunResult trace_served_mixed(const Options& options, Checker& checker) {
    RunResult out;
    std::optional<ServerProcess> server;
    std::vector<double> ft_ops;
    (void)start_and_warm(options, server, ft_ops, checker);
    double wall_s = 0.0;
    const std::vector<Exchange> all =
        drive(options, server->port(), 0.0, kTracedRounds, wall_s, checker);
    InProcess local;
    const std::uint64_t jobs = check_exchanges(options, all, local, checker);
    const JsonValue stats = final_stats(server->port(), jobs + working_set(options).size(), checker);
    server.reset();
    out.attempted = all.size();

    // Wire codec and single-point estimate, timed in process on the
    // workload's own request lines and results.
    std::vector<double> parse_us;
    std::vector<double> serialize_us;
    std::vector<double> estimate_us;
    std::vector<double> net_us;
    double request_bytes = 0.0;
    double response_bytes = 0.0;
    double moves = 0.0;
    double optimize_s = 0.0;
    double retimed = 0.0;
    const auto span_us = [](const char* name, const auto& call) {
        trace::set_enabled(true);
        const std::size_t index = trace::spans().size();
        {
            const trace::Span span(name);
            call();
        }
        trace::set_enabled(false);
        const trace::SpanRecord& s = trace::spans()[index];
        return static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    };
    for (const Exchange& e : all) {
        trace::begin_operation();
        request_bytes += static_cast<double>(e.request.line.size() + 1);
        response_bytes += static_cast<double>(e.response.size() + 1);
        const double parse = span_us("wire.parse_request", [&] {
            checker.expect(leqa::service::wire::parse_request(e.request.line).ok(),
                           "request line does not parse: " + e.request.line);
        });
        parse_us.push_back(parse);
        if (e.request.kind == Kind::Estimate) {
            const leqa::pipeline::EstimationResult& result = local.run(options, e.request);
            const leqa::service::JobResult job{leqa::service::JobOutput{result}};
            const double serialize = span_us("wire.serialize_result", [&] {
                (void)leqa::service::wire::serialize_result(e.request.id, job);
            });
            serialize_us.push_back(serialize);
            const leqa::pipeline::CachedCircuitPtr cached = local.pipeline.resolve(
                leqa::pipeline::CircuitSource::from_bench(working_set(options)[e.request.circuit]));
            const leqa::core::EstimationEngine engine(InProcess::params_of(e.request));
            estimate_us.push_back(span_us("core.estimate", [&] {
                (void)engine.estimate(cached->profile());
            }));
            const double service_s = leqa::util::json_parse(e.response)
                                         .at("result").at("stage_times_s").at("total").as_number();
            net_us.push_back(e.rtt_s * 1e6 - service_s * 1e6 - parse - serialize);
        } else if (e.request.kind == Kind::Optimize) {
            const JsonValue opt = leqa::util::json_parse(e.response).at("result").at("optimize");
            moves += opt.at("moves").at("attempted").as_number();
            optimize_s += opt.at("seconds").as_number();
            retimed += opt.at("nodes_retimed").as_number();
        }
    }
    const double n = static_cast<double>(all.size());
    out.add("wire.parse_request_us", median(parse_us), "us");
    out.add("wire.serialize_result_us", median(serialize_us), "us");
    out.add("wire.request_bytes", request_bytes / n, "bytes");
    out.add("wire.response_bytes", response_bytes / n, "bytes");
    out.add("service.queue_wait_s", stats.at("queue_wait").at("p50_s").as_number(), "s");
    out.add("service.service_time_s", stats.at("service_time").at("p50_s").as_number(), "s");
    out.add("pipeline.circuit_hits", stats.at("cache").at("circuit_hits").as_number(), "count");
    out.add("pipeline.circuit_misses", stats.at("cache").at("circuit_misses").as_number(),
            "count");
    out.add("core.estimate_us", median(estimate_us), "us");
    out.add("core.optimize_us_per_move", moves > 0 ? optimize_s * 1e6 / moves : 0.0, "us");
    out.add("core.nodes_retimed_per_move", moves > 0 ? retimed / moves : 0.0, "count");
    out.add("net.overhead_us", median(net_us), "us");
    return out;
}

} // namespace perfbench
