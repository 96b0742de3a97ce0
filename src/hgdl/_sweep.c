/* The exact beta > 0 Gauss-Seidel code sweep of hgdl.dictlearn.update_codes.

   codes is (n, K) row-major: row i holds sample i's codes and is updated
   in place. target is (n, K), row i being D^T x_i. gram_cols is (K, K),
   row k holding column k of D^T D with its diagonal zeroed, and gdiag the
   diagonal. indptr, indices and values are L's CSR rows as stored. In
   row i a finite entry in column i is L_ii, an entry equal to 0.0 is
   skipped (0.0 times an inf code would be NaN), and every other entry,
   a non-finite L_ii included, is coupled in, so a non-finite L_ii stops
   the sweep at sample i. field and coupling are K doubles of scratch.

   Returns -1, or i * K + k for the first step (sample i, atom k) whose
   linear term is not finite; the sweep stops there. */

#include <math.h>
#include <stdint.h>

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
            if (v == 0.0)
                continue;
            if (indices[p] == i && isfinite(v)) {
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
            double updated;
            if (curvature <= curvature_floor)
                updated = 0.0;
            else if (linear > alpha)
                updated = (linear - alpha) / curvature;
            else if (linear < -alpha)
                updated = (linear + alpha) / curvature;
            else
                updated = 0.0;
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
