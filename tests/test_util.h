// Shared helpers for the test suites: canonical result-set extraction,
// algorithm runners, small fixture graphs (Figures 1, 3, 5, 6, 7), and a
// non-reading eqld client that pins a server slot.
#ifndef EQL_TESTS_TEST_UTIL_H_
#define EQL_TESTS_TEST_UTIL_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ctp/algorithm.h"
#include "gen/synthetic.h"
#include "graph/graph.h"
#include "server/http.h"
#include "util/rng.h"

namespace eql {

/// Canonical form of a result set: sorted vector of sorted edge-id vectors.
using CanonicalResults = std::set<std::vector<EdgeId>>;

inline CanonicalResults Canonical(const CtpResultSet& results) {
  CanonicalResults out;
  for (auto& es : results.EdgeSets()) out.insert(es);
  return out;
}

/// Runs one algorithm on (g, seed sets) and returns it (holding results,
/// stats, arena). `universal[i]` flags S_i as the universal set N
/// (Section 4.9); empty means none. Aborts the test on construction/run
/// errors.
inline std::unique_ptr<CtpAlgorithm> RunAlgo(
    AlgorithmKind kind, const Graph& g,
    const std::vector<std::vector<NodeId>>& sets, CtpFilters filters = {},
    SearchOrder* order = nullptr,
    QueueStrategy qs = QueueStrategy::kSingle,
    std::vector<bool> universal = {}) {
  auto seeds = SeedSets::Make(g, sets, std::move(universal));
  EXPECT_TRUE(seeds.ok()) << seeds.status().ToString();
  if (!seeds.ok()) return nullptr;
  // SeedSets must outlive the algorithm; stash it on the heap with the algo.
  struct Holder : CtpAlgorithm {
    SeedSets seeds;
    std::unique_ptr<CtpAlgorithm> inner;
    Holder(SeedSets s) : seeds(std::move(s)) {}
    Status Run() override { return inner->Run(); }
    const CtpResultSet& results() const override { return inner->results(); }
    const SearchStats& stats() const override { return inner->stats(); }
    const TreeArena& arena() const override { return inner->arena(); }
    AlgorithmKind kind() const override { return inner->kind(); }
  };
  auto holder = std::make_unique<Holder>(std::move(seeds).value());
  holder->inner = CreateCtpAlgorithm(kind, g, holder->seeds, std::move(filters),
                                     order, qs);
  Status st = holder->Run();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return holder;
}

/// RunAlgo with universal flags, defaulting to what the engine runs for an
/// N member: MoLESP over per-sat-subset queues.
inline std::unique_ptr<CtpAlgorithm> RunUniversal(
    const Graph& g, const std::vector<std::vector<NodeId>>& sets,
    std::vector<bool> universal, CtpFilters filters,
    QueueStrategy qs = QueueStrategy::kPerSatSubset,
    AlgorithmKind kind = AlgorithmKind::kMoLesp) {
  return RunAlgo(kind, g, sets, std::move(filters), nullptr, qs,
                 std::move(universal));
}

/// The running example graph of Figure 1 (12 nodes, 19 edges).
inline Graph MakeFigure1Graph() {
  Graph g;
  auto node = [&](const char* label, const char* type) {
    NodeId n = g.AddNode(label);
    if (type != nullptr) g.AddType(n, type);
    return n;
  };
  NodeId org_b = node("OrgB", "company");
  NodeId bob = node("Bob", "entrepreneur");
  NodeId alice = node("Alice", "entrepreneur");
  NodeId carole = node("Carole", "entrepreneur");
  NodeId org_a = node("OrgA", "company");
  NodeId doug = node("Doug", "entrepreneur");
  NodeId org_c = node("OrgC", "company");
  NodeId france = node("France", "country");
  NodeId elon = node("Elon", "politician");
  NodeId usa = node("USA", "country");
  NodeId nlp = g.AddLiteralNode("National Liberal Party");
  NodeId falcon = node("Falcon", "politician");

  g.AddEdge(bob, org_b, "founded");        // e1
  g.AddEdge(alice, org_b, "investsIn");    // e2
  g.AddEdge(bob, alice, "parentOf");       // e3
  g.AddEdge(org_b, france, "locatedIn");   // e4
  g.AddEdge(bob, usa, "citizenOf");        // e5
  g.AddEdge(carole, usa, "citizenOf");     // e6
  g.AddEdge(carole, org_a, "founded");     // e7
  g.AddEdge(doug, org_a, "CEO");           // e8
  g.AddEdge(doug, org_c, "investsIn");     // e9
  g.AddEdge(carole, org_c, "founded");     // e10
  g.AddEdge(elon, doug, "parentOf");       // e11
  g.AddEdge(alice, france, "citizenOf");   // e12
  g.AddEdge(doug, france, "citizenOf");    // e13
  g.AddEdge(elon, france, "citizenOf");    // e14
  g.AddEdge(org_c, usa, "locatedIn");      // e15
  g.AddEdge(elon, nlp, "affiliation");     // e16
  g.AddEdge(org_b, nlp, "funds");          // e17
  g.AddEdge(falcon, nlp, "affiliation");   // e18
  g.AddEdge(falcon, usa, "investsIn");     // e19
  g.Finalize();
  return g;
}

/// Figure 3: A -1- 2 -B- 3 -C as an undirected chain A,1,2,B,3,C.
/// Seeds {A},{B},{C}; ESP can miss the unique result on bad orders.
inline SyntheticDataset MakeFigure3Graph() {
  SyntheticDataset out;
  Graph& g = out.graph;
  NodeId a = g.AddNode("A");
  NodeId n1 = g.AddNode("1");
  NodeId n2 = g.AddNode("2");
  NodeId b = g.AddNode("B");
  NodeId n3 = g.AddNode("3");
  NodeId c = g.AddNode("C");
  g.AddEdge(a, n1, "t");
  g.AddEdge(n1, n2, "t");
  g.AddEdge(n2, b, "t");
  g.AddEdge(b, n3, "t");
  g.AddEdge(n3, c, "t");
  g.Finalize();
  out.seed_sets = {{a}, {b}, {c}};
  return out;
}

/// Figure 5: seeds A, B, C each one edge from a central non-seed x
/// (A-1-x, B-2-x, C-3-x where 1,2,3 are intermediate nodes). The unique
/// result is 3-simple; MoESP can miss it, MoLESP cannot.
inline SyntheticDataset MakeFigure5Graph() {
  SyntheticDataset out;
  Graph& g = out.graph;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  NodeId c = g.AddNode("C");
  NodeId n1 = g.AddNode("1");
  NodeId n2 = g.AddNode("2");
  NodeId n3 = g.AddNode("3");
  NodeId x = g.AddNode("x");
  g.AddEdge(a, n1, "t");
  g.AddEdge(n1, x, "t");
  g.AddEdge(b, n2, "t");
  g.AddEdge(n2, x, "t");
  g.AddEdge(c, n3, "t");
  g.AddEdge(n3, x, "t");
  g.Finalize();
  out.seed_sets = {{a}, {b}, {c}};
  return out;
}

/// Figure 6: 4 seeds A,B,C,D; A-1-2-B on one side, C-3-4-D on the other,
/// 2-x-3 bridging. LESP alone can miss the only result.
inline SyntheticDataset MakeFigure6Graph() {
  SyntheticDataset out;
  Graph& g = out.graph;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  NodeId c = g.AddNode("C");
  NodeId d = g.AddNode("D");
  NodeId n1 = g.AddNode("1");
  NodeId n2 = g.AddNode("2");
  NodeId n3 = g.AddNode("3");
  NodeId n4 = g.AddNode("4");
  NodeId x = g.AddNode("x");
  g.AddEdge(a, n1, "t");
  g.AddEdge(n1, n2, "t");
  g.AddEdge(n2, b, "t");
  g.AddEdge(c, n3, "t");
  g.AddEdge(n3, n4, "t");
  g.AddEdge(n4, d, "t");
  g.AddEdge(n2, x, "t");
  g.AddEdge(x, n3, "t");
  g.Finalize();
  out.seed_sets = {{a}, {b}, {c}, {d}};
  return out;
}

/// Figure 7: six seeds A..F; the result decomposes into two spiders joined
/// at the *seed* B, so every theta(t) piece is a (u,n)-rooted merge and
/// Property 9 guarantees MoLESP finds the full result.
inline SyntheticDataset MakeFigure7Graph() {
  SyntheticDataset out;
  Graph& g = out.graph;
  NodeId a = g.AddNode("A");
  NodeId c = g.AddNode("C");
  NodeId d = g.AddNode("D");
  NodeId e = g.AddNode("E");
  NodeId f = g.AddNode("F");
  NodeId b = g.AddNode("B");
  NodeId n1 = g.AddNode("1");
  NodeId n2 = g.AddNode("2");
  NodeId n3 = g.AddNode("3");
  NodeId n5 = g.AddNode("5");
  NodeId n6 = g.AddNode("6");
  NodeId n7 = g.AddNode("7");
  // Spider 1, center 2 (non-seed): legs 2-1-A, 2-3-C, 2-7-F, 2-B.
  g.AddEdge(a, n1, "t");
  g.AddEdge(n1, n2, "t");
  g.AddEdge(n2, n3, "t");
  g.AddEdge(n3, c, "t");
  g.AddEdge(n2, n7, "t");
  g.AddEdge(n7, f, "t");
  g.AddEdge(n2, b, "t");
  // Spider 2, center 5 (non-seed): legs 5-B, 5-D, 5-6-E.
  g.AddEdge(b, n5, "t");
  g.AddEdge(n5, d, "t");
  g.AddEdge(n5, n6, "t");
  g.AddEdge(n6, e, "t");
  g.Finalize();
  out.seed_sets = {{a}, {b}, {c}, {d}, {e}, {f}};
  return out;
}

/// Connected random multigraph with `num_edges >= num_nodes - 1` edges:
/// a random spanning arborescence plus uniform extra edges. Deterministic
/// in *rng.
inline Graph MakeRandomGraph(int num_nodes, int num_edges, Rng* rng) {
  Graph g;
  for (int i = 0; i < num_nodes; ++i) g.AddNode("n" + std::to_string(i));
  for (int i = 1; i < num_nodes; ++i) {
    NodeId other = static_cast<NodeId>(rng->Below(i));
    if (rng->Chance(0.5)) {
      g.AddEdge(i, other, "t");
    } else {
      g.AddEdge(other, i, "t");
    }
  }
  while (g.NumEdges() < static_cast<size_t>(num_edges)) {
    NodeId a = static_cast<NodeId>(rng->Below(num_nodes));
    NodeId b = static_cast<NodeId>(rng->Below(num_nodes));
    if (a == b) continue;
    g.AddEdge(a, b, "t");
  }
  g.Finalize();
  return g;
}

/// m disjoint singleton-or-small seed sets over distinct random nodes.
inline std::vector<std::vector<NodeId>> PickSeedSets(const Graph& g, int m,
                                                     int max_set_size, Rng* rng) {
  std::vector<std::vector<NodeId>> sets;
  std::vector<NodeId> used;
  for (int i = 0; i < m; ++i) {
    int size = 1 + static_cast<int>(rng->Below(max_set_size));
    std::vector<NodeId> set;
    int guard = 0;
    while (static_cast<int>(set.size()) < size && guard++ < 1000) {
      NodeId n = static_cast<NodeId>(rng->Below(g.NumNodes()));
      if (std::find(used.begin(), used.end(), n) != used.end()) continue;
      used.push_back(n);
      set.push_back(n);
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

/// A raw eqld client that sends one /query?format=tsv request and does not
/// read: once the response outgrows the socket buffers, the server's
/// connection thread blocks in its chunk write and holds the admission
/// ticket (slot and memory lease) until Drain() or Close(). The receive
/// buffer is shrunk BEFORE connect, so the handshake advertises a small
/// window; shrinking it after connect leaves a window the kernel will not
/// reopen at full size, and the later drain crawls.
class BlockedQuery {
 public:
  BlockedQuery(uint16_t port, const std::string& client_name,
               const std::string& query =
                   "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }") {
    Send(port, client_name, query);  // ASSERTs live in a void helper
  }
  BlockedQuery(const BlockedQuery&) = delete;
  BlockedQuery& operator=(const BlockedQuery&) = delete;
  ~BlockedQuery() { Close(); }

  /// Reads the whole (so far unread) response; the held slot drains.
  HttpResponse Drain() {
    HttpResponse resp;
    std::string buffer;
    // Generous idle timeout: under TSan the engine's inter-chunk compute
    // gaps stretch well past the default 10 s, and a premature client
    // timeout here would misread a healthy slow stream as truncation.
    Status st = ReadHttpResponse(fd_, &buffer, &resp,
                                 /*idle_timeout_ms=*/120000);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return resp;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  void Send(uint16_t port, const std::string& client_name,
            const std::string& query) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    int rcvbuf = 4096;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    std::string req = "POST /query?format=tsv HTTP/1.1\r\nHost: eqld\r\n";
    req += "X-EQL-Client: " + client_name + "\r\n";
    req += "Content-Length: " + std::to_string(query.size()) + "\r\n\r\n";
    req += query;
    ASSERT_EQ(::send(fd_, req.data(), req.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(req.size()));
  }

  int fd_ = -1;
};

}  // namespace eql

#endif  // EQL_TESTS_TEST_UTIL_H_
