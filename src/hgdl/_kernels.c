/* The compiled kernels of hgdl, built once per process by hgdl._native:
   hgdl_sweep, the exact beta > 0 Gauss-Seidel code sweep of
   hgdl.dictlearn.update_codes, and hgdl_admm, the sparse-attention ADMM
   of hgdl.attention.solve_attention_batch. Both are compiled without FMA
   contraction, so each operation rounds as the Python it replaced. The
   callers reject a non-finite L, codes or attention problem, so each
   kernel only stops where an overflow or a non-finite datum appears. */

#include <math.h>
#include <stdint.h>

/* the soft threshold at t >= 0, the proximal map of t |.| */
static double shrink(double v, double t)
{
    return v > t ? v - t : (v < -t ? v + t : 0.0);
}

/* hgdl_sweep: one beta > 0 code sweep. codes is (n, K) row-major: row i
   holds sample i's codes and is updated in place. target is (n, K), row
   i being D^T x_i. gram_cols is (K, K), row k holding column k of D^T D
   with its diagonal zeroed, and gdiag the diagonal. indptr, indices and
   values are L's CSR rows as stored, all finite: in row i the entry in
   column i is L_ii and every other entry is coupled in. field and
   coupling are K doubles of scratch.

   Returns -1, or i * K + k for the first step (sample i, atom k) whose
   linear term or updated code is not finite; the sweep stops there,
   before that code is written. */

int64_t hgdl_sweep(int64_t n, int64_t K, const double *target,
                   const double *gram_cols, const double *gdiag,
                   const int64_t *indptr, const int64_t *indices,
                   const double *values, double alpha, double beta,
                   double curvature_floor, double *codes, double *field,
                   double *coupling)
{
    for (int64_t i = 0; i < n; i++) {
        double *s = codes + i * K;
        /* field = (D^T x_i - beta L_off S^T) - G_off s_i; zero codes are
           not skipped, so a non-finite atom reaches every entry */
        for (int64_t k = 0; k < K; k++) {
            field[k] = 0.0;
            coupling[k] = 0.0;
        }
        for (int64_t j = 0; j < K; j++) {
            const double *col = gram_cols + j * K;
            double sj = s[j];
            for (int64_t k = 0; k < K; k++)
                field[k] += col[k] * sj;
        }
        double lii = 0.0;
        for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) {
            double v = values[p];
            if (indices[p] == i) {
                lii = v;
                continue;
            }
            const double *other = codes + indices[p] * K;
            for (int64_t k = 0; k < K; k++)
                coupling[k] += v * other[k];
        }
        for (int64_t k = 0; k < K; k++)
            field[k] = (target[i * K + k] - beta * coupling[k]) - field[k];

        double beta_lii = beta * lii;
        for (int64_t k = 0; k < K; k++) {
            double linear = field[k];
            if (!isfinite(linear))
                return i * K + k;
            double curvature = gdiag[k] + beta_lii;
            double updated = curvature <= curvature_floor
                             ? 0.0 : shrink(linear, alpha) / curvature;
            if (!isfinite(updated))
                return i * K + k;
            double old = s[k];
            if (updated != old) {
                /* a changed code moves the field by its atom's column */
                const double *col = gram_cols + k * K;
                double step = old - updated;
                for (int64_t m = 0; m < K; m++)
                    field[m] += step * col[m];
                s[k] = updated;
            }
        }
    }
    return -1;
}

/* hgdl_admm: n attention problems of size k, each solved on its own.
   inverse is (n, k, k), row-major, problem c's inverse of
   P^T P + rho I; ptx is (n, k), row c being P^T x. rho and eps are
   positive. z, q and m are (n, k) outputs, zeroed here, that hold each
   problem's iterates and keep those of the iteration at which it
   stopped: the first at which both max|z - q| and max|q - q_prev| are
   within tol (converged 1), or max_iter (converged 0 unless that holds
   there too). iterations gets that count. Nothing is kept per
   iteration, so a run capped at max_iter = t ends with the t-th
   iterate of any longer run. An iteration is
       z = inverse (ptx + rho q - m), summed in ascending j from the
           first product,
       q = shrink(z + m / rho, eps / rho),
       m = m + rho (z - q).
   v and q_prev are k doubles of scratch.

   Returns 0, or the first iteration at which some problem's z or m is
   not finite; that problem stops there, the others run as before. */
int64_t hgdl_admm(int64_t n, int64_t k, const double *inverse,
                  const double *ptx, double rho, double eps, double tol,
                  int64_t max_iter, double *z, double *q, double *m,
                  int64_t *iterations, unsigned char *converged,
                  double *v, double *q_prev)
{
    double t = eps / rho;
    int64_t diverged = 0;
    for (int64_t c = 0; c < n; c++) {
        const double *inv = inverse + c * k * k;
        const double *b = ptx + c * k;
        double *zc = z + c * k, *qc = q + c * k, *mc = m + c * k;
        for (int64_t i = 0; i < k; i++) {
            qc[i] = 0.0;
            mc[i] = 0.0;
        }
        for (int64_t it = 1; it <= max_iter; it++) {
            for (int64_t j = 0; j < k; j++) {
                v[j] = (b[j] + rho * qc[j]) - mc[j];
                q_prev[j] = qc[j];
            }
            for (int64_t i = 0; i < k; i++) {
                const double *row = inv + i * k;
                double sum = row[0] * v[0];
                for (int64_t j = 1; j < k; j++)
                    sum += row[j] * v[j];
                zc[i] = sum;
            }
            int finite = 1, done = 1;
            for (int64_t i = 0; i < k; i++) {
                double qi = shrink(zc[i] + mc[i] / rho, t);
                qc[i] = qi;
                mc[i] = mc[i] + rho * (zc[i] - qi);
                finite &= isfinite(zc[i]) && isfinite(mc[i]);
                done &= fabs(zc[i] - qi) <= tol
                        && fabs(qi - q_prev[i]) <= tol;
            }
            if (!finite) {
                if (diverged == 0 || it < diverged)
                    diverged = it;
                break;
            }
            if (done || it == max_iter) {
                iterations[c] = it;
                converged[c] = (unsigned char)done;
                break;
            }
        }
    }
    return diverged;
}
