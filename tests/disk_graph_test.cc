#include "storage/disk_graph.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "storage/io_backend.h"
#include "util/thread_pool.h"

namespace dualsim {
namespace {

/// Round-trip verification reads every page back through the IoBackend,
/// so a read path that corrupts or drops bytes fails the content
/// comparison. Instantiated once, for the one page reader, under the
/// name its io.backend metrics label reports, so case ids read
/// Backends/DiskGraphTest.<Case>/threadpool.
class DiskGraphTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dualsim_dg_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    io_ = std::make_unique<ThreadPool>(2);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string PathFor(const std::string& name) { return (dir_ / name).string(); }

  /// Reads back the whole database through PageViews and compares with g.
  void VerifyContents(const Graph& g, DiskGraph& disk) {
    IoBackend backend(&disk.file(), io_.get());
    std::vector<std::vector<VertexId>> adj(g.NumVertices());
    std::vector<std::byte> buf(disk.page_size());
    for (PageId pid = 0; pid < disk.num_pages(); ++pid) {
      ASSERT_TRUE(backend.ReadPage(pid, buf.data()).ok());
      PageView view(buf.data(), disk.page_size());
      for (std::uint32_t s = 0; s < view.NumRecords(); ++s) {
        VertexRecord rec = view.GetRecord(s);
        auto& list = adj[rec.vertex];
        ASSERT_EQ(rec.sublist_offset, list.size())
            << "sublists must arrive in order";
        list.insert(list.end(), rec.neighbors.begin(), rec.neighbors.end());
      }
    }
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      auto want = g.Neighbors(v);
      ASSERT_EQ(adj[v].size(), want.size()) << "vertex " << v;
      EXPECT_TRUE(std::equal(want.begin(), want.end(), adj[v].begin()));
    }
  }

  std::filesystem::path dir_;
  std::unique_ptr<ThreadPool> io_;
};

TEST_P(DiskGraphTest, BuildAndOpenRoundTrip) {
  Graph g = ReorderByDegree(ErdosRenyi(120, 400, 3));
  const std::string path = PathFor("g.db");
  ASSERT_TRUE(BuildDiskGraph(g, path, 512).ok());
  auto disk = DiskGraph::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_EQ((*disk)->num_vertices(), g.NumVertices());
  EXPECT_EQ((*disk)->num_edges(), g.NumEdges());
  EXPECT_TRUE((*disk)->AllSinglePage());
  VerifyContents(g, **disk);
}

TEST_P(DiskGraphTest, FirstPageMapIsMonotone) {
  Graph g = ReorderByDegree(ErdosRenyi(200, 700, 5));
  const std::string path = PathFor("mono.db");
  ASSERT_TRUE(BuildDiskGraph(g, path, 256).ok());
  auto disk = DiskGraph::Open(path);
  ASSERT_TRUE(disk.ok());
  // Lemma 1: pages are assigned in vertex-id order.
  for (VertexId v = 0; v + 1 < g.NumVertices(); ++v) {
    EXPECT_LE((*disk)->FirstPageOf(v), (*disk)->FirstPageOf(v + 1));
  }
  // first_vertex is consistent with first_page.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const PageId p = (*disk)->FirstPageOf(v);
    EXPECT_LE((*disk)->FirstVertexOf(p), v);
  }
}

TEST_P(DiskGraphTest, LargeAdjacencySplitsIntoSublists) {
  // A star whose hub exceeds one tiny page.
  Graph g = Star(200);  // hub degree 199 >> capacity of a 128B page
  const std::string path = PathFor("split.db");
  ASSERT_TRUE(BuildDiskGraph(g, path, 128).ok());
  auto disk = DiskGraph::Open(path);
  ASSERT_TRUE(disk.ok());
  EXPECT_FALSE((*disk)->AllSinglePage());
  VerifyContents(g, **disk);
}

TEST_P(DiskGraphTest, RequireSinglePageRejectsBigVertices) {
  Graph g = Star(200);
  EXPECT_EQ(BuildDiskGraph(g, PathFor("rej.db"), 128,
                           /*require_single_page=*/true)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_P(DiskGraphTest, MultiPageCatalogFields) {
  Graph g = Star(200);  // hub spans several 128-byte pages
  const std::string path = PathFor("cat.db");
  ASSERT_TRUE(BuildDiskGraph(g, path, 128).ok());
  auto disk = DiskGraph::Open(path);
  ASSERT_TRUE(disk.ok());
  EXPECT_GT((*disk)->MaxVertexPages(), 1u);
  // Exactly one vertex (the hub, which is the last id after degree order:
  // here the raw star has hub id 0) spans pages.
  std::uint32_t split_vertices = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_LE((*disk)->FirstPageOf(v), (*disk)->LastPageOf(v));
    if ((*disk)->LastPageOf(v) > (*disk)->FirstPageOf(v)) ++split_vertices;
  }
  EXPECT_EQ(split_vertices, 1u);
  // SpansBeyond is true exactly for the hub's non-final pages.
  const VertexId hub = 0;
  for (PageId p = (*disk)->FirstPageOf(hub); p < (*disk)->LastPageOf(hub);
       ++p) {
    EXPECT_TRUE((*disk)->SpansBeyond(p)) << p;
  }
  EXPECT_FALSE((*disk)->SpansBeyond((*disk)->LastPageOf(hub)));
  EXPECT_EQ((*disk)->MaxVertexPages(),
            (*disk)->LastPageOf(hub) - (*disk)->FirstPageOf(hub) + 1);
}

TEST_P(DiskGraphTest, SinglePageGraphHasTrivialSpans) {
  Graph g = ReorderByDegree(ErdosRenyi(100, 300, 3));
  const std::string path = PathFor("sp.db");
  ASSERT_TRUE(BuildDiskGraph(g, path, 4096).ok());
  auto disk = DiskGraph::Open(path);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ((*disk)->MaxVertexPages(), 1u);
  for (PageId p = 0; p < (*disk)->num_pages(); ++p) {
    EXPECT_FALSE((*disk)->SpansBeyond(p));
  }
}

TEST_P(DiskGraphTest, OpenWithoutMetaFails) {
  EXPECT_FALSE(DiskGraph::Open(PathFor("missing.db")).ok());
}

TEST_P(DiskGraphTest, TinyGraphRoundTrip) {
  Graph g = Path(3);  // vertex degrees 1,2,1
  const std::string path = PathFor("p3.db");
  ASSERT_TRUE(BuildDiskGraph(g, path, 256).ok());
  auto disk = DiskGraph::Open(path);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ((*disk)->num_vertices(), 3u);
  VerifyContents(g, **disk);
}

TEST_P(DiskGraphTest, VerifyAdjacencyAcceptsFreshBuild) {
  Graph g = ReorderByDegree(RMat(8, 700, 0.55, 0.15, 0.15, 4));
  const std::string path = PathFor("verify.db");
  ASSERT_TRUE(BuildDiskGraph(g, path, 512).ok());
  auto disk = DiskGraph::Open(path, false);
  ASSERT_TRUE(disk.ok());
  bool degree_ordered = false;
  Status s = (*disk)->VerifyAdjacency(&degree_ordered);
  EXPECT_TRUE(s.ok()) << s.ToString();
  // Built from a ReorderByDegree graph: the ≺-order (degree) layout the
  // intersection dispatcher's skew assumptions come from must hold.
  EXPECT_TRUE(degree_ordered);
}

TEST_P(DiskGraphTest, VerifyAdjacencyReportsNonDegreeOrderedLayout) {
  // A star written without reordering: vertex 0 has the largest degree
  // and comes first, so degrees are decreasing — valid, but flagged.
  GraphBuilder builder(11);
  for (VertexId leaf = 1; leaf <= 10; ++leaf) builder.AddEdge(0, leaf);
  Graph g = builder.Build();
  const std::string path = PathFor("star.db");
  ASSERT_TRUE(BuildDiskGraph(g, path, 512).ok());
  auto disk = DiskGraph::Open(path, false);
  ASSERT_TRUE(disk.ok());
  bool degree_ordered = true;
  Status s = (*disk)->VerifyAdjacency(&degree_ordered);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(degree_ordered);
}

TEST_P(DiskGraphTest, VerifyAdjacencyDetectsUnsortedNeighbors) {
  Graph g = ReorderByDegree(Complete(8));  // every record has >= 2 neighbors
  const std::string path = PathFor("corrupt.db");
  ASSERT_TRUE(BuildDiskGraph(g, path, 512).ok());
  {
    // Swap the first record's first two neighbors in place: record 0
    // starts right after the 8-byte page header, neighbors follow the
    // 16-byte record header.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const std::streamoff neighbors_at = 8 + 16;
    VertexId n0 = 0;
    VertexId n1 = 0;
    f.seekg(neighbors_at);
    f.read(reinterpret_cast<char*>(&n0), sizeof(n0));
    f.read(reinterpret_cast<char*>(&n1), sizeof(n1));
    ASSERT_NE(n0, n1);
    f.seekp(neighbors_at);
    f.write(reinterpret_cast<char*>(&n1), sizeof(n1));
    f.write(reinterpret_cast<char*>(&n0), sizeof(n0));
  }
  auto disk = DiskGraph::Open(path, false);
  ASSERT_TRUE(disk.ok());
  Status s = (*disk)->VerifyAdjacency();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("not sorted"), std::string::npos)
      << s.ToString();
}

TEST_P(DiskGraphTest, OpenRejectsNonMonotoneCatalog) {
  Graph g = ReorderByDegree(ErdosRenyi(60, 200, 5));
  const std::string path = PathFor("badmeta.db");
  ASSERT_TRUE(BuildDiskGraph(g, path, 512).ok());
  {
    // Point vertex 1's first page past the end of the file: the load-time
    // catalog check (Lemma 1 layout) must reject it before any page read.
    std::fstream f(path + ".meta",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const std::streamoff header_bytes = 40;
    PageId bogus = 0x7FFFFFFF;
    f.seekp(header_bytes + static_cast<std::streamoff>(sizeof(PageId)));
    f.write(reinterpret_cast<char*>(&bogus), sizeof(bogus));
  }
  auto disk = DiskGraph::Open(path, false);
  EXPECT_FALSE(disk.ok());
  EXPECT_NE(disk.status().ToString().find("catalog corruption"),
            std::string::npos)
      << disk.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(Backends, DiskGraphTest,
                         ::testing::Values("threadpool"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace dualsim
