#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/status.h"
#include "linalg/views.h"

namespace phasorwatch::linalg {

CsrMatrix CsrMatrix::FromTriplets(size_t rows, size_t cols,
                                  std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    PW_CHECK_LT(t.row, rows);
    PW_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_start_.assign(rows + 1, 0);
  m.col_index_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (size_t k = 0; k < triplets.size();) {
    size_t row = triplets[k].row;
    size_t col = triplets[k].col;
    double sum = 0.0;
    while (k < triplets.size() && triplets[k].row == row &&
           triplets[k].col == col) {
      sum += triplets[k].value;
      ++k;
    }
    if (sum != 0.0) {
      m.col_index_.push_back(col);
      m.values_.push_back(sum);
      ++m.row_start_[row + 1];
    }
  }
  for (size_t r = 0; r < rows; ++r) m.row_start_[r + 1] += m.row_start_[r];
  return m;
}

CsrMatrix CsrMatrix::FromPattern(
    size_t rows, size_t cols, std::vector<std::pair<size_t, size_t>> entries) {
  for (const auto& [r, c] : entries) {
    PW_CHECK_LT(r, rows);
    PW_CHECK_LT(c, cols);
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_start_.assign(rows + 1, 0);
  m.col_index_.reserve(entries.size());
  m.values_.assign(entries.size(), 0.0);
  for (const auto& [r, c] : entries) {
    m.col_index_.push_back(c);
    ++m.row_start_[r + 1];
  }
  for (size_t r = 0; r < rows; ++r) m.row_start_[r + 1] += m.row_start_[r];
  return m;
}

CsrMatrix CsrMatrix::FromDense(const Matrix& dense, double tol) {
  std::vector<Triplet> triplets;
  for (size_t i = 0; i < dense.rows(); ++i) {
    for (size_t j = 0; j < dense.cols(); ++j) {
      if (std::fabs(dense(i, j)) > tol) {
        triplets.push_back({i, j, dense(i, j)});
      }
    }
  }
  return FromTriplets(dense.rows(), dense.cols(), std::move(triplets));
}

Vector CsrMatrix::Multiply(const Vector& x) const {
  PW_CHECK_EQ(x.size(), cols_);
  Vector y(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      sum += values_[k] * x[col_index_[k]];
    }
    y[r] = sum;
  }
  return y;
}

PW_NO_ALLOC void CsrMatrix::MultiplyInto(ConstVectorView x,
                                         VectorView y) const {
  PW_CHECK_EQ(x.size(), cols_);
  PW_CHECK_EQ(y.size(), rows_);
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      sum += values_[k] * x[col_index_[k]];
    }
    y[r] = sum;
  }
}

double CsrMatrix::At(size_t row, size_t col) const {
  PW_CHECK_LT(row, rows_);
  PW_CHECK_LT(col, cols_);
  auto begin = col_index_.begin() + static_cast<long>(row_start_[row]);
  auto end = col_index_.begin() + static_cast<long>(row_start_[row + 1]);
  auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<size_t>(it - col_index_.begin())];
}

size_t CsrMatrix::EntrySlot(size_t row, size_t col) const {
  PW_CHECK_LT(row, rows_);
  PW_CHECK_LT(col, cols_);
  auto begin = col_index_.begin() + static_cast<long>(row_start_[row]);
  auto end = col_index_.begin() + static_cast<long>(row_start_[row + 1]);
  auto it = std::lower_bound(begin, end, col);
  PW_CHECK(it != end && *it == col);
  return static_cast<size_t>(it - col_index_.begin());
}

PW_NO_ALLOC void CsrMatrix::UpdateValues(ConstVectorView values) {
  PW_CHECK_EQ(values.size(), values_.size());
  for (size_t k = 0; k < values_.size(); ++k) values_[k] = values[k];
}

Matrix CsrMatrix::ToDense() const {
  Matrix dense(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      dense(r, col_index_[k]) = values_[k];
    }
  }
  return dense;
}

Vector CsrMatrix::Diagonal() const {
  size_t n = std::min(rows_, cols_);
  Vector d(n);
  for (size_t i = 0; i < n; ++i) d[i] = At(i, i);
  return d;
}

bool CsrMatrix::IsSymmetric(double tol) const {
  PW_CHECK_EQ(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      if (std::fabs(values_[k] - At(col_index_[k], r)) > tol) return false;
    }
  }
  return true;
}

Result<SparseLu> SparseLu::Analyze(const CsrMatrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("sparse LU requires a square matrix");
  }
  const size_t n = a.rows();
  if (n == 0) {
    return Status::InvalidArgument("sparse LU requires a non-empty matrix");
  }

  // Structural symmetrization A + A^T as adjacency sets over original
  // indices. Ordering and fill work on the symmetric pattern so the
  // classic Cholesky fill property applies to the LU factors.
  const std::vector<size_t>& row_start = a.RowStartArray();
  const std::vector<size_t>& col_index = a.ColIndexArray();
  std::vector<std::set<size_t>> adj(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t k = row_start[r]; k < row_start[r + 1]; ++k) {
      const size_t c = col_index[k];
      if (c == r) continue;
      adj[r].insert(c);
      adj[c].insert(r);
    }
  }

  SparseLu lu;
  lu.n_ = n;
  lu.a_nnz_ = a.NumNonZeros();
  lu.perm_.resize(n);
  lu.inv_perm_.resize(n);

  // Minimum-degree ordering (Tinney scheme 2): repeatedly eliminate
  // the node of smallest current degree (smallest index on ties, for
  // determinism), turning its remaining neighbors into a clique —
  // exactly the fill that elimination will create.
  {
    std::vector<std::set<size_t>> g = adj;
    std::vector<char> eliminated(n, 0);
    for (size_t step = 0; step < n; ++step) {
      size_t best = n;
      size_t best_deg = n + 1;
      for (size_t v = 0; v < n; ++v) {
        if (!eliminated[v] && g[v].size() < best_deg) {
          best_deg = g[v].size();
          best = v;
        }
      }
      lu.perm_[step] = best;
      lu.inv_perm_[best] = step;
      eliminated[best] = 1;
      std::vector<size_t> nbrs(g[best].begin(), g[best].end());
      for (size_t u : nbrs) g[u].erase(best);
      for (size_t x = 0; x < nbrs.size(); ++x) {
        for (size_t y = x + 1; y < nbrs.size(); ++y) {
          g[nbrs[x]].insert(nbrs[y]);
          g[nbrs[y]].insert(nbrs[x]);
        }
      }
      g[best].clear();
    }
  }

  // Symbolic elimination in permuted order. When row i is eliminated,
  // its higher-numbered neighbors (in the graph grown by earlier
  // cliques) are exactly the pattern of U row i past the diagonal, and
  // each such neighbor's L row gains column i.
  std::vector<std::set<size_t>> g(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c : adj[r]) g[lu.inv_perm_[r]].insert(lu.inv_perm_[c]);
  }
  std::vector<std::vector<size_t>> l_rows(n);
  std::vector<std::vector<size_t>> u_rows(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<size_t>& higher = u_rows[i];
    for (size_t v : g[i]) {
      if (v > i) higher.push_back(v);  // std::set iterates ascending
    }
    for (size_t x = 0; x < higher.size(); ++x) {
      l_rows[higher[x]].push_back(i);
      for (size_t y = x + 1; y < higher.size(); ++y) {
        g[higher[x]].insert(higher[y]);
        g[higher[y]].insert(higher[x]);
      }
    }
  }

  // Flatten the fill pattern. U rows lead with their diagonal slot so
  // the pivot is u_val_[u_start_[i]] without a search.
  lu.l_start_.assign(n + 1, 0);
  lu.u_start_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    lu.l_start_[i + 1] = lu.l_start_[i] + l_rows[i].size();
    lu.u_start_[i + 1] = lu.u_start_[i] + u_rows[i].size() + 1;
  }
  lu.l_col_.reserve(lu.l_start_[n]);
  lu.u_col_.reserve(lu.u_start_[n]);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k : l_rows[i]) lu.l_col_.push_back(k);
    lu.u_col_.push_back(i);
    for (size_t j : u_rows[i]) lu.u_col_.push_back(j);
  }
  lu.l_val_.assign(lu.l_col_.size(), 0.0);
  lu.u_val_.assign(lu.u_col_.size(), 0.0);

  // Scatter map: where each of A's value slots lands among the
  // permuted rows, so Refactor reads A's values straight off its
  // storage without per-entry searches.
  lu.a_map_start_.assign(n + 1, 0);
  for (size_t r = 0; r < n; ++r) {
    lu.a_map_start_[lu.inv_perm_[r] + 1] += row_start[r + 1] - row_start[r];
  }
  for (size_t i = 0; i < n; ++i) lu.a_map_start_[i + 1] += lu.a_map_start_[i];
  lu.a_map_slot_.resize(lu.a_nnz_);
  lu.a_map_col_.resize(lu.a_nnz_);
  std::vector<size_t> cursor(lu.a_map_start_.begin(),
                             lu.a_map_start_.end() - 1);
  for (size_t r = 0; r < n; ++r) {
    const size_t pr = lu.inv_perm_[r];
    for (size_t k = row_start[r]; k < row_start[r + 1]; ++k) {
      lu.a_map_slot_[cursor[pr]] = k;
      lu.a_map_col_[cursor[pr]] = lu.inv_perm_[col_index[k]];
      ++cursor[pr];
    }
  }

  lu.work_.assign(n, 0.0);
  lu.y_.assign(n, 0.0);
  return lu;
}

Result<SparseLu> SparseLu::Factor(const CsrMatrix& a, double pivot_tol) {
  PW_ASSIGN_OR_RETURN(SparseLu lu, Analyze(a));
  PW_RETURN_IF_ERROR(lu.Refactor(a, pivot_tol));
  return lu;
}

PW_NO_ALLOC Status SparseLu::Refactor(const CsrMatrix& a, double pivot_tol) {
  PW_CHECK_EQ(a.rows(), n_);
  PW_CHECK_EQ(a.cols(), n_);
  PW_CHECK_EQ(a.NumNonZeros(), a_nnz_);
  factored_ = false;
  const std::vector<double>& av = a.ValueArray();
  for (size_t i = 0; i < n_; ++i) {
    // Clear the working row over this row's factor pattern, scatter
    // A's entries, then eliminate against the finished rows above.
    for (size_t t = l_start_[i]; t < l_start_[i + 1]; ++t) {
      work_[l_col_[t]] = 0.0;
    }
    for (size_t t = u_start_[i]; t < u_start_[i + 1]; ++t) {
      work_[u_col_[t]] = 0.0;
    }
    for (size_t t = a_map_start_[i]; t < a_map_start_[i + 1]; ++t) {
      work_[a_map_col_[t]] += av[a_map_slot_[t]];
    }
    for (size_t t = l_start_[i]; t < l_start_[i + 1]; ++t) {
      const size_t k = l_col_[t];
      const double lik = work_[k] / u_val_[u_start_[k]];
      l_val_[t] = lik;
      if (lik == 0.0) continue;
      for (size_t s = u_start_[k] + 1; s < u_start_[k + 1]; ++s) {
        work_[u_col_[s]] -= lik * u_val_[s];
      }
    }
    for (size_t t = u_start_[i]; t < u_start_[i + 1]; ++t) {
      u_val_[t] = work_[u_col_[t]];
    }
    const double pivot = u_val_[u_start_[i]];
    if (!(std::fabs(pivot) > pivot_tol)) {
      return Status::Singular("sparse LU pivot " + std::to_string(pivot) +
                              " at elimination step " + std::to_string(i));
    }
  }
  factored_ = true;
  return Status::OK();
}

PW_NO_ALLOC Status SparseLu::SolveInto(ConstVectorView b, VectorView x) const {
  PW_CHECK_EQ(b.size(), n_);
  PW_CHECK_EQ(x.size(), n_);
  if (!factored_) {
    return Status::FailedPrecondition(
        "SparseLu::SolveInto before a successful Refactor");
  }
  // Forward substitution: y = L^{-1} (P b).
  for (size_t i = 0; i < n_; ++i) {
    double t = b[perm_[i]];
    for (size_t s = l_start_[i]; s < l_start_[i + 1]; ++s) {
      t -= l_val_[s] * y_[l_col_[s]];
    }
    y_[i] = t;
  }
  // Back substitution in place: y <- U^{-1} y.
  for (size_t i = n_; i-- > 0;) {
    double t = y_[i];
    for (size_t s = u_start_[i] + 1; s < u_start_[i + 1]; ++s) {
      t -= u_val_[s] * y_[u_col_[s]];
    }
    y_[i] = t / u_val_[u_start_[i]];
  }
  // Undo the ordering: x = P^T y.
  for (size_t i = 0; i < n_; ++i) x[perm_[i]] = y_[i];
  return Status::OK();
}

Result<Vector> SparseLu::Solve(const Vector& b) const {
  Vector x(b.size());
  PW_RETURN_IF_ERROR(SolveInto(b, x));
  return x;
}

}  // namespace phasorwatch::linalg
