/* The compiled kernels of hgdl, built once per process by hgdl._native:
   hgdl_sweep, the exact beta > 0 Gauss-Seidel code sweep of
   hgdl.dictlearn.update_codes, hgdl_lasso_sweep, its beta = 0 sweep,
   hgdl_dictionary, the blockwise atom sweep of
   hgdl.dictlearn.update_dictionary, hgdl_encode, the lasso coding of
   held-out columns of hgdl.dictlearn.encode_test, hgdl_admm, the
   sparse-attention ADMM of hgdl.attention.solve_attention_batch, hgdl_knn,
   the neighbor search of hgdl.hypergraph.knn_neighbors, hgdl_laplacian, the
   dense Laplacian of hgdl.hypergraph.laplacian, hgdl_csr_product, the L S^T
   of hgdl.dictlearn.objective, hgdl_saf, the neighbor distances and
   attention problems of hgdl.hypergraph.build_saf_hypergraph, and
   hgdl_csv, the CSV parser of hgdl.data.load_csv. The code sweeps share
   one scalar step, code_step: hgdl_sweep runs it through sample_steps,
   one sample at a time, and the beta = 0 kernels through lasso_columns,
   on blocks of 16 columns, atoms outermost: hgdl_lasso_sweep runs one
   sweep of it, hgdl_encode one per sweep. All are compiled without FMA contraction, so each
   operation rounds as written here, and the test oracles can repeat it
   in Python floats. The callers reject a non-finite L, codes, test
   matrix, attention problem or feature matrix, so each kernel only stops
   where an overflow or a non-finite datum appears.

   The beta = 0 kernels take a thread count, 1 or 2, which
   hgdl._native.lasso_threads picks. Their columns are independent lasso
   problems, so with 2 they split the blocks in two parts, and a second
   thread, started at lasso_worker, sweeps the second part while the
   caller sweeps the first: hgdl_lasso_sweep starts it for its one sweep
   and joins it, and hgdl_encode keeps it for all its sweeps, the two
   meeting at a pthread barrier after each. No column's steps change,
   each column's objective is kept apart and all are summed in column
   order, and the first failure is reported in sample order, so every
   bit, status and count is that of one thread. The other kernels run on
   the caller's thread alone.

   On x86-64 ELF with glibc, the four coordinate-descent kernels
   (hgdl_sweep, hgdl_lasso_sweep, hgdl_dictionary, hgdl_encode) and
   hgdl_admm are built twice, for AVX2 and for the baseline ISA, and the
   dynamic loader picks one for the CPU it runs on. The static helpers
   lasso_columns, encode_sweeps and lasso_worker are cloned too: GCC
   binds a clone's call of a cloned function to the clone of its own ISA,
   and lasso_worker, whose address is passed to pthread_create, resolves
   through its own ifunc, whose resolver is GCC's, as the kernels' are,
   so the second thread runs the clone of its caller's ISA. The sweeps'
   inner loops are elementwise y += a * x steps, which round the same at
   every vector width, and no sum is reordered; hgdl_admm steps LANES
   attention problems side by side, one in each lane of a vector, every
   step elementwise. So both clones of each give the same bits.
   hgdl_knn and hgdl_saf are not cloned: their inner loops are sums,
   which stay scalar either way, so they run independent sums side by
   side instead, each in its own order: hgdl_knn sums CANDIDATES pairs'
   distances at once, and hgdl_saf sums in numpy's eight pairwise
   accumulators. hgdl_laplacian's inner loops are scattered adds.
   hgdl_csr_product is not cloned either, though its axpy would
   vectorize: the clones are laid out together, so a new one moves the
   others' code, and an AVX2 clone of it there made the hgdl_dictionary
   sweep 12-23% slower (medians of 15 x 20 sweeps at 200 atoms, three
   processes each, 2-core Xeon). hgdl._native._FLAGS start every
   function on a 64-byte boundary and every loop on a 32-byte one, which
   CI checks with nm, so such a move shifts code by whole cache lines;
   whether that ends the rule is yet to be measured. A new kernel that
   is not a coordinate-descent sweep goes after hgdl_csr_product,
   uncloned, with its static helpers always inlined, so that none of
   them lands between the clones (pairwise_sum, hgdl_saf's sum of more
   than 128 terms, is recursive, and GCC puts it after the clones), and
   a C library function it calls is declared NOPLT, as strtod and the
   pthread functions are: a PLT slot grows .plt, which precedes .text,
   and moves every clone by 16 bytes. lasso_worker's ifunc takes one such
   slot. No AVX2 clone calls a static helper that is neither inlined nor
   cloned itself, which CI checks too: an AVX2 clone of hgdl_knn that
   called an out-of-line offer took over four times as long as the
   uncloned kernel.

   hgdl._native types each exported kernel, and only those are named
   hgdl_, by its _CTYPES from the definition "<ret> hgdl_<name>(<params>)"
   starting a line, with CLONED, if any, above and the brace below. */

/* pthread barriers are POSIX.1-2001 */
#define _POSIX_C_SOURCE 200112L

#include <math.h>
#include <pthread.h>
#include <stddef.h>
#include <stdint.h>

/* CLONED builds a function once per listed ISA behind an ifunc resolver */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) \
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONED
#define CLONED
#endif

/* NOPLT calls a C library function through the GOT, so the library gains
   no PLT slot: .plt precedes .text, and each slot would move every
   clone by 16 bytes. Each such function is declared again with it. */
#if defined(__has_attribute)
#if __has_attribute(noplt)
#define NOPLT __attribute__((noplt))
#endif
#endif
#ifndef NOPLT
#define NOPLT
#endif

NOPLT int pthread_create(pthread_t *thread, const pthread_attr_t *attr,
                         void *(*entry)(void *), void *arg);
NOPLT int pthread_join(pthread_t thread, void **result);
NOPLT int pthread_barrier_init(pthread_barrier_t *barrier,
                               const pthread_barrierattr_t *attr,
                               unsigned count);
NOPLT int pthread_barrier_wait(pthread_barrier_t *barrier);
NOPLT int pthread_barrier_destroy(pthread_barrier_t *barrier);

/* the soft threshold at t >= 0, the proximal map of t |.| */
static double shrink(double v, double t)
{
    return v > t ? v - t : (v < -t ? v + t : 0.0);
}

/* code_step: atom k's scalar step on one sample. field holds the
   sample's linear terms: (D^T x - beta L_off S^T) - G_off s, G_off being
   D^T D with its diagonal zeroed. The code *s becomes
   shrink(field[k], alpha) / curvature, or 0 where curvature is at or
   below curvature_floor. Only a code that changes moves the field, by
   row k of gram_cols, atom k's share of every linear term as the field
   was formed.

   Returns 0, or 1 where the linear term or the updated code is not
   finite; the code is then not written. Always inlined, as sample_steps
   is, so each clone of a kernel runs it at the clone's width. */
static inline __attribute__((always_inline)) int
code_step(int64_t K, int64_t k, const double *gram_cols, double curvature,
          double alpha, double curvature_floor, double *s, double *field)
{
    double linear = field[k];
    if (!isfinite(linear))
        return 1;
    double updated = curvature <= curvature_floor
                     ? 0.0 : shrink(linear, alpha) / curvature;
    if (!isfinite(updated))
        return 1;
    double old = *s;
    if (updated != old) {
        const double *col = gram_cols + k * K;
        double step = old - updated;
        for (int64_t m = 0; m < K; m++)
            field[m] += step * col[m];
        *s = updated;
    }
    return 0;
}

/* sample_steps: one sample's K scalar steps, atoms in order, the code of
   atom k at s[k] and its curvature gdiag[k] + shift. Returns -1, or the
   first atom whose step is not finite; the steps stop there. */
static inline __attribute__((always_inline)) int64_t
sample_steps(int64_t K, const double *gram_cols, const double *gdiag,
             double shift, double alpha, double curvature_floor, double *s,
             double *field)
{
    for (int64_t k = 0; k < K; k++)
        if (code_step(K, k, gram_cols, gdiag[k] + shift, alpha,
                      curvature_floor, s + k, field))
            return k;
    return -1;
}

/* hgdl_sweep: one beta > 0 code sweep. codes is (n, K) row-major: row i
   holds sample i's codes and is updated in place. target is (n, K), row
   i being D^T x_i. gram_cols is (K, K), row k holding column k of D^T D
   with its diagonal zeroed, and gdiag the diagonal. indptr, indices and
   values are L's CSR rows as stored, all finite: in row i the entry in
   column i is L_ii and every other entry is coupled in. field and
   coupling are K doubles of scratch.

   G_off s_i is summed from 0 over ascending j. Where every entry of
   gram_cols is finite, a code equal to 0 (or -0) is skipped: its
   products are +-0, and adding +-0 leaves a round-to-nearest sum that
   started at +0 as it was, so the skip keeps every bit. Where some
   entry is not finite, its inf * 0 = NaN must reach the field, so no
   code is skipped in that call.

   Returns -1, or i * K + k for the first step (sample i, atom k) whose
   linear term or updated code is not finite; the sweep stops there,
   before that code is written. */
CLONED
int64_t hgdl_sweep(int64_t n, int64_t K, const double *target,
                   const double *gram_cols, const double *gdiag,
                   const int64_t *indptr, const int64_t *indices,
                   const double *values, double alpha, double beta,
                   double curvature_floor, double *codes, double *field,
                   double *coupling)
{
    int skip_zeros = 1;
    for (int64_t p = 0; p < K * K; p++)
        skip_zeros &= isfinite(gram_cols[p]) != 0;
    for (int64_t i = 0; i < n; i++) {
        double *s = codes + i * K;
        /* field = (D^T x_i - beta L_off S^T) - G_off s_i */
        for (int64_t k = 0; k < K; k++) {
            field[k] = 0.0;
            coupling[k] = 0.0;
        }
        for (int64_t j = 0; j < K; j++) {
            const double *col = gram_cols + j * K;
            double sj = s[j];
            if (sj == 0.0 && skip_zeros)
                continue;
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

        int64_t k = sample_steps(K, gram_cols, gdiag, beta * lii, alpha,
                                 curvature_floor, s, field);
        if (k >= 0)
            return i * K + k;
    }
    return -1;
}

/* hgdl_dictionary: one blockwise sweep over the atoms, from atom start
   on. atoms is (K, dim) row-major, row k holding atom k, and is updated
   in place; corr is X S^T, (dim, K), and code_gram S S^T, (K, K), both
   row-major. Atom k becomes u / ||u|| with
       u = (corr_k - D g_k) + D_k g_kk,
   g_k being column k of code_gram. D g_k is K axpy steps over
   contiguous atoms, so each of its entries is summed from 0 over
   ascending atoms, whatever the vector width, and reads the atoms
   before k as this sweep left them; ||u||^2 is summed from 0 over
   ascending d. u is dim doubles of scratch.

   Returns -1 when every atom from start on was updated, k when atom k
   is dead (||u|| at or below curvature_floor), or K + k when ||u|| is
   not finite; the sweep stops there, before atom k is written. */
CLONED
int64_t hgdl_dictionary(int64_t dim, int64_t K, int64_t start,
                        const double *corr, const double *code_gram,
                        double curvature_floor, double *atoms, double *u)
{
    for (int64_t k = start; k < K; k++) {
        double *atom = atoms + k * dim;
        int64_t d;
        for (d = 0; d < dim; d++)
            u[d] = 0.0;
        for (int64_t m = 0; m < K; m++) {
            const double *other = atoms + m * dim;
            double g = code_gram[m * K + k];
            for (d = 0; d < dim; d++)
                u[d] += other[d] * g;
        }
        double gkk = code_gram[k * K + k];
        for (d = 0; d < dim; d++)
            u[d] = (corr[d * K + k] - u[d]) + atom[d] * gkk;
        double squares = 0.0;
        for (d = 0; d < dim; d++)
            squares += u[d] * u[d];
        double norm = sqrt(squares);
        if (!isfinite(norm))
            return K + k;
        if (norm <= curvature_floor)
            return k;
        for (d = 0; d < dim; d++)
            atom[d] = u[d] / norm;
    }
    return -1;
}

/* the columns that hgdl_lasso_sweep steps together */
#define BLOCK 16

/* lasso: a beta = 0 problem as hgdl_lasso_sweep and hgdl_encode take it,
   with what their threads share. codes is (K, n) row-major, column i
   holding sample i's codes, and field is (n, K), row i holding sample
   i's linear terms; gram_cols is (K, K), row k holding G_off[k], G_off
   being D^T D with its diagonal zeroed, and gdiag is the diagonal.

   Part 0 is columns 0 to split - 1 and part 1 columns split to n - 1,
   split being a multiple of BLOCK, so each part runs whole blocks; with
   one thread, split is n. failed[t % 2][p] holds part p's status in
   sweep t, hgdl_lasso_sweep's one sweep being sweep 1. The rest is
   hgdl_encode's: barrier is set while a second thread runs part 1 of
   every sweep, initial is the objective at s = 0, and sums + (t % 2) n
   holds the objectives of sweep t's columns. There are two sets of statuses and objectives, so a thread
   can write sweep t + 1's while the other still reads sweep t's. */
struct lasso {
    int64_t n, K, split;
    const double *gram_cols, *gdiag;
    double alpha, curvature_floor;
    double *codes, *field;
    pthread_barrier_t *barrier;
    const double *target, *ysq;
    double tol, initial, *sums;
    int64_t max_sweeps;
    int64_t failed[2][2];
};

/* split_at: the first column of part 1 when threads share n columns:
   part 0 gets the first half of the blocks, rounded up; n when threads
   is 1 or there is one block */
static inline __attribute__((always_inline)) int64_t
split_at(int64_t n, int64_t threads)
{
    int64_t split = ((n + BLOCK - 1) / BLOCK + 1) / 2 * BLOCK;
    return threads > 1 && split < n ? split : n;
}

/* lasso_columns: one sweep of job's columns first to last - 1, first a
   multiple of BLOCK. Within a block of BLOCK columns the atoms are the
   outer loop, so the block's columns share each row of gram_cols while
   it is in cache. Each column still takes its steps in atom order, each
   one code_step with curvature gdiag[k] + 0.0, and no column reads
   another's, so the bits depend neither on the block nor on the thread.

   Returns -1, or i * K + k for the first step (sample i, atom k) in
   sample-major order whose linear term or updated code is not finite:
   a column stops at its first such step, the rest of its block runs on,
   and the sweep stops after the block. */
CLONED
static int64_t lasso_columns(const struct lasso *job, int64_t first,
                             int64_t last)
{
    int64_t n = job->n, K = job->K;
    const double *gram_cols = job->gram_cols, *gdiag = job->gdiag;
    double alpha = job->alpha, curvature_floor = job->curvature_floor;
    double *codes = job->codes, *field = job->field;
    for (int64_t start = first; start < last; start += BLOCK) {
        int64_t width = last - start < BLOCK ? last - start : BLOCK;
        int64_t failed[BLOCK];
        for (int64_t c = 0; c < width; c++)
            failed[c] = -1;
        for (int64_t k = 0; k < K; k++) {
            double curvature = gdiag[k] + 0.0;
            for (int64_t c = 0; c < width; c++) {
                int64_t i = start + c;
                if (failed[c] < 0
                    && code_step(K, k, gram_cols, curvature, alpha,
                                 curvature_floor, codes + k * n + i,
                                 field + i * K))
                    failed[c] = k;
            }
        }
        for (int64_t c = 0; c < width; c++)
            if (failed[c] >= 0)
                return (start + c) * K + failed[c];
    }
    return -1;
}

/* encode_sweeps: hgdl_encode's sweeps on part p of job. Each sweep steps
   the part's columns, then sums each column's objective from its field
   into sums. With a second thread, each thread runs its part and the
   two meet at the barrier after every sweep; past it, each reads both
   parts' statuses and sums all n objectives in column order, so both
   reach the same value and the same stop, and the bits, statuses and
   counts are those of one thread. sweeps and change are part 0's. */
CLONED
static int64_t encode_sweeps(struct lasso *job, int64_t part,
                             int64_t *sweeps, double *change)
{
    int64_t n = job->n, K = job->K;
    int64_t first = part ? job->split : 0, last = part ? n : job->split;
    const double *target = job->target, *ysq = job->ysq;
    const double *gdiag = job->gdiag, *codes = job->codes;
    const double *field = job->field;
    double twice = 2.0 * job->alpha, previous = job->initial;
    for (int64_t t = 1; t <= job->max_sweeps; t++) {
        int64_t *failed = job->failed[t % 2];
        double *sums = job->sums + t % 2 * n;
        failed[part] = lasso_columns(job, first, last);
        if (failed[part] < 0)
            for (int64_t i = first; i < last; i++) {
                const double *b = target + i * K, *f = field + i * K;
                double sum = ysq[i];
                for (int64_t k = 0; k < K; k++) {
                    double sk = codes[k * n + i];
                    sum += sk * ((gdiag[k] * sk - b[k]) - f[k])
                           + twice * fabs(sk);
                }
                sums[i] = sum;
            }
        if (job->barrier != NULL)
            pthread_barrier_wait(job->barrier);
        int64_t status = failed[0] >= 0 ? failed[0] : failed[1];
        if (status >= 0) {
            *sweeps = t;
            return status;
        }
        double value = 0.0;
        for (int64_t i = 0; i < n; i++)
            value += sums[i];
        double scale = fmax(1.0, fabs(previous));
        double moved = fabs(previous - value);
        *sweeps = t;
        *change = moved / scale;
        if (moved < job->tol * scale)
            return -1;
        previous = value;
    }
    return -2;
}

/* lasso_worker: the entry of a kernel's second thread, which runs part 1
   of the job at arg: every sweep for hgdl_encode, which set the barrier,
   or one for hgdl_lasso_sweep. It is cloned like the kernels, and GCC's
   resolver, which picks their clones too, picks its clone, so the
   thread runs at the width of the kernel that started it. */
CLONED
static void *lasso_worker(void *arg)
{
    struct lasso *job = arg;
    if (job->barrier != NULL) {
        int64_t sweeps;
        double change;
        encode_sweeps(job, 1, &sweeps, &change);
    } else {
        job->failed[1][1] = lasso_columns(job, job->split, job->n);
    }
    return NULL;
}

/* hgdl_lasso_sweep: one beta = 0 code sweep, in which the n columns are
   independent lasso problems. The arguments are as struct lasso states;
   codes and field are updated in place, the steps moving a column's
   field with its codes, by row k of gram_cols when code k changes.

   With threads 2 (a larger count runs as 2), a second thread, started
   here and joined before the return, sweeps part 1 while the caller
   sweeps part 0; with threads 1, or one block, the caller sweeps all.
   Each column's steps are those of lasso_columns either way.

   Returns -1, or i * K + k for the first step (sample i, atom k) in
   sample-major order whose linear term or updated code is not finite.
   Each part stops after the block of its own first failure, so part 1
   may step blocks that one thread would not have reached; the codes of
   a failed sweep are not used. */
CLONED
int64_t hgdl_lasso_sweep(int64_t n, int64_t K, const double *gram_cols,
                         const double *gdiag, double alpha,
                         double curvature_floor, double *codes,
                         double *field, int64_t threads)
{
    struct lasso job = {.n = n, .K = K, .split = split_at(n, threads),
                        .gram_cols = gram_cols, .gdiag = gdiag,
                        .alpha = alpha, .curvature_floor = curvature_floor,
                        .codes = codes, .field = field};
    pthread_t worker;
    if (job.split < n && pthread_create(&worker, NULL, lasso_worker, &job))
        job.split = n;
    int64_t failed = lasso_columns(&job, 0, job.split);
    if (job.split < n) {
        pthread_join(worker, NULL);
        if (failed < 0)
            failed = job.failed[1][1];
    }
    return failed;
}

/* hgdl_encode: lasso codes of n held-out columns on a frozen dictionary,
   min_s ||y - D s||^2 + 2 gamma ||s||_1 for each column y of Y, by
   cyclic coordinate descent from s = 0. dictionary is (dim, K) and
   test (dim, n), both row-major; codes is the (K, n) row-major output,
   zeroed here. The scratch is target and field, (n, K) each, gram
   (K, K), gdiag (K), ysq (n) and sums (2 n).

   D^T D and D^T Y are formed once, each entry summed from 0 over
   ascending d, so D^T D is exactly symmetric. Column i keeps one running
   field f = D^T y - G_off s, which starts as D^T y and which only its
   steps move; it is never formed again. A sweep is lasso_columns on
   each part, the clone of the caller's ISA. After it, the objective is
   summed column by column in O(K) from the field,
       ||y||^2 + sum_k s_k ((G_kk s_k - (D^T y)_k) - f_k) + 2 gamma |s_k|,
   and the sweeps stop once the relative change of the sum,
   |previous - value| / max(1, |previous|), is below tol, or after
   max_sweeps. The sum at s = 0 is the sum of the ||y||^2.

   With threads 2 (a larger count runs as 2), one second thread runs
   part 1 of every sweep, as encode_sweeps says, and is joined before the
   return; with threads 1, or one block, the caller runs all. Either way
   the result is the same, bit for bit.

   sweeps gets the sweeps run and change the last relative change.
   Returns -1 when the stop rule held, -2 when max_sweeps ran without it,
   or i * K + k for the first step (sample i, atom k) whose linear term or
   updated code is not finite; the sweeps stop there, before that code
   is written. */
CLONED
int64_t hgdl_encode(int64_t dim, int64_t K, int64_t n,
                    const double *dictionary, const double *test,
                    double gamma, double curvature_floor, double tol,
                    int64_t max_sweeps, double *codes, double *target,
                    double *field, double *gram, double *gdiag,
                    double *ysq, double *sums, int64_t *sweeps,
                    double *change, int64_t threads)
{
    for (int64_t k = 0; k < K; k++) {
        double *row = gram + k * K;
        for (int64_t m = 0; m < K; m++)
            row[m] = 0.0;
        for (int64_t d = 0; d < dim; d++) {
            const double *atoms = dictionary + d * K;
            for (int64_t m = 0; m < K; m++)
                row[m] += atoms[k] * atoms[m];
        }
        gdiag[k] = row[k];
        row[k] = 0.0;
    }
    double previous = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double *b = target + i * K;
        double norm = 0.0;
        for (int64_t k = 0; k < K; k++)
            b[k] = 0.0;
        for (int64_t d = 0; d < dim; d++) {
            const double *atoms = dictionary + d * K;
            double y = test[d * n + i];
            norm += y * y;
            for (int64_t k = 0; k < K; k++)
                b[k] += atoms[k] * y;
        }
        ysq[i] = norm;
        previous += norm;
        for (int64_t k = 0; k < K; k++) {
            field[i * K + k] = b[k];
            codes[k * n + i] = 0.0;
        }
    }

    struct lasso job = {.n = n, .K = K, .split = split_at(n, threads),
                        .gram_cols = gram, .gdiag = gdiag, .alpha = gamma,
                        .curvature_floor = curvature_floor, .codes = codes,
                        .field = field, .target = target, .ysq = ysq,
                        .tol = tol, .initial = previous, .sums = sums,
                        .max_sweeps = max_sweeps,
                        .failed = {{-1, -1}, {-1, -1}}};
    pthread_t worker;
    pthread_barrier_t barrier;
    if (job.split < n) {
        if (pthread_barrier_init(&barrier, NULL, 2) == 0) {
            job.barrier = &barrier;
            if (pthread_create(&worker, NULL, lasso_worker, &job)) {
                pthread_barrier_destroy(&barrier);
                job.barrier = NULL;
            }
        }
        if (job.barrier == NULL)
            job.split = n;
    }
    int64_t status = encode_sweeps(&job, 0, sweeps, change);
    if (job.barrier != NULL) {
        pthread_join(worker, NULL);
        pthread_barrier_destroy(&barrier);
    }
    return status;
}

/* before: whether (distance r, index j) comes before (rho, m) in the
   order of the neighbor lists, distance first, then index */
static inline __attribute__((always_inline)) int
before(double r, int64_t j, double rho, int64_t m)
{
    return r < rho || (r == rho && j < m);
}

/* offer: puts (r, j) into one neighbor list of k (distance, index)
   pairs, sorted by before, unless it comes after the last one, which
   then drops out */
static inline __attribute__((always_inline)) void
offer(int64_t k, double *dist, int64_t *index, double r, int64_t j)
{
    int64_t p = k - 1;
    if (!before(r, j, dist[p], index[p]))
        return;
    for (; p > 0 && before(r, j, dist[p - 1], index[p - 1]); p--) {
        dist[p] = dist[p - 1];
        index[p] = index[p - 1];
    }
    dist[p] = r;
    index[p] = j;
}

/* the candidate points whose distances to one point hgdl_knn sums side
   by side */
#define CANDIDATES 4

/* pair_distances: the distances from the point at a to the width
   (CANDIDATES at most) points from b on, rows of dim, each the square
   root of its squared differences summed from 0 over ascending d, in a
   sum of its own */
static inline __attribute__((always_inline)) void
pair_distances(int64_t dim, const double *a, const double *b, int64_t width,
               double *out)
{
    double sum[CANDIDATES] = {0.0, 0.0, 0.0, 0.0};
    for (int64_t d = 0; d < dim; d++)
        for (int64_t p = 0; p < width; p++) {
            double diff = a[d] - b[p * dim + d];
            sum[p] += diff * diff;
        }
    for (int64_t p = 0; p < width; p++)
        out[p] = sqrt(sum[p]);
}

/* hgdl_knn: each of n points' k nearest other points, 1 <= k < n.
   points is (n, dim) row-major, row i holding point i, all finite. A
   pair's distance is the square root of its squared differences summed
   from 0 over ascending d; a difference that overflows gives +inf. It
   is computed once per unordered pair and offered to both points'
   lists, which keep the k smallest (distance, index) pairs with
   distance first, so equal distances, +inf too, keep ascending index
   and a list does not depend on the order of its offers. Point i's
   distances to the points after it are summed CANDIDATES at a time,
   each in its own sum, so the sums' adds overlap and none changes its
   order.
   neighbors and dist are the (n, k) row-major outputs: row i holds
   point i's neighbors and their distances, nearest first. */
void hgdl_knn(int64_t n, int64_t dim, int64_t k, const double *points,
              int64_t *neighbors, double *dist)
{
    /* the placeholder (+inf, n) comes after every real pair */
    for (int64_t p = 0; p < n * k; p++) {
        dist[p] = INFINITY;
        neighbors[p] = n;
    }
    for (int64_t i = 0; i < n; i++) {
        const double *a = points + i * dim;
        for (int64_t j = i + 1; j < n; j += CANDIDATES) {
            double r[CANDIDATES];
            int64_t width = n - j < CANDIDATES ? n - j : CANDIDATES;
            /* a constant width unrolls the sums into registers */
            if (width == CANDIDATES)
                pair_distances(dim, a, points + j * dim, CANDIDATES, r);
            else
                pair_distances(dim, a, points + j * dim, width, r);
            for (int64_t p = 0; p < width; p++) {
                offer(k, dist + i * k, neighbors + i * k, r[p], j + p);
                offer(k, dist + (j + p) * k, neighbors + (j + p) * k, r[p],
                      i);
            }
        }
    }
}

/* the attention problems that hgdl_admm steps side by side, LANES in
   all: value x of lane l is at [x * LANES + l] of a lane array, and the
   steps run on pairs of lanes, pair being a GCC vector of two doubles,
   aligned as a double so that it is read from any double, and
   pair_flags one flag per lane of a pair, -1 for true and 0 for false,
   as a comparison of pairs gives it. The baseline x86-64 ISA has every
   operation on a pair, comparisons too; GCC's baseline clone of a
   kernel on vectors of four doubles compares lane by lane, and holds
   each such vector in memory, which made hgdl_admm's baseline clone
   slower than one problem at a time. */
#define LANES 4
#define HALVES (LANES / 2)
typedef double pair __attribute__((vector_size(2 * sizeof(double)),
                                   aligned(sizeof(double))));
typedef int64_t pair_flags __attribute__((vector_size(2 * sizeof(int64_t))));

/* admm_lane: puts problem c into lane l of the lane arrays inv, b, q and
   m, inv holding its inverse transposed; c < 0 leaves the lane idle, all
   zero, so that its steps stay 0 */
static inline __attribute__((always_inline)) void
admm_lane(int64_t k, int64_t l, int64_t c, const double *inverse,
          const double *ptx, double *inv, double *b, double *q, double *m)
{
    for (int64_t i = 0; i < k; i++)
        for (int64_t j = 0; j < k; j++)
            inv[(j * k + i) * LANES + l] =
                c < 0 ? 0.0 : inverse[(c * k + i) * k + j];
    for (int64_t j = 0; j < k; j++) {
        b[j * LANES + l] = c < 0 ? 0.0 : ptx[c * k + j];
        q[j * LANES + l] = 0.0;
        m[j * LANES + l] = 0.0;
    }
}

/* hgdl_admm: n attention problems of size k, each solved on its own.
   inverse is (n, k, k), row-major, problem c's inverse of
   P^T P + rho I; ptx is (n, k), row c being P^T x. rho and eps are
   positive. z, q and m are (n, k) outputs that hold each problem's
   iterates of the iteration at which it stopped: the first at which both
   max|z - q| and max|q - q_prev| are within tol (converged 1), or
   max_iter (converged 0 unless that holds there too). iterations gets
   that count. Nothing is kept per iteration, so a run capped at
   max_iter = t ends with the t-th iterate of any longer run. Each
   problem starts from q = m = 0, and an iteration is
       z = inverse (ptx + rho q - m), summed in ascending j from the
           first product,
       q = shrink(z + m / rho, eps / rho),
       m = m + rho (z - q).
   LANES problems run side by side, one in each lane, and every step is
   taken lane by lane, elementwise, so each lane rounds and stops as its
   problem would alone. A lane whose problem stops takes the next
   problem, in order, until none is left. lanes is LANES (k^2 + 5 k)
   doubles of scratch.

   Returns 0, or the first iteration at which some problem's z or m is
   not finite; that problem stops there, with neither its iterations nor
   its converged written, and the others run as before. */
CLONED
int64_t hgdl_admm(int64_t n, int64_t k, const double *inverse,
                  const double *ptx, double rho, double eps, double tol,
                  int64_t max_iter, double *z, double *q, double *m,
                  int64_t *iterations, unsigned char *converged,
                  double *lanes)
{
    double *inv = lanes, *b = inv + LANES * k * k, *zl = b + LANES * k;
    double *ql = zl + LANES * k, *ml = ql + LANES * k, *v = ml + LANES * k;
    const pair *p_inv = (const pair *)inv, *p_b = (const pair *)b;
    pair *p_z = (pair *)zl, *p_q = (pair *)ql, *p_m = (pair *)ml;
    pair *p_v = (pair *)v;
    double t = eps / rho;
    int64_t diverged = 0, next = 0, running = 0;
    int64_t problem[LANES], it[LANES];
    for (int64_t l = 0; l < LANES; l++) {
        problem[l] = next < n ? next++ : -1;
        it[l] = 0;
        running += problem[l] >= 0;
        admm_lane(k, l, problem[l], inverse, ptx, inv, b, ql, ml);
    }
    while (running > 0) {
        pair_flags finite[HALVES], done[HALVES];
        for (int64_t p = 0; p < HALVES * k; p++)
            p_v[p] = (p_b[p] + rho * p_q[p]) - p_m[p];
        for (int64_t i = 0; i < k; i++)
            for (int64_t h = 0; h < HALVES; h++)
                p_z[i * HALVES + h] = p_inv[i * HALVES + h] * p_v[h];
        for (int64_t j = 1; j < k; j++)
            for (int64_t i = 0; i < k; i++)
                for (int64_t h = 0; h < HALVES; h++)
                    p_z[i * HALVES + h] += p_inv[(j * k + i) * HALVES + h]
                                           * p_v[j * HALVES + h];
        for (int64_t h = 0; h < HALVES; h++) {
            pair_flags lane_finite = {-1, -1}, lane_done = {-1, -1};
            for (int64_t i = 0; i < k; i++) {
                int64_t p = i * HALVES + h;
                pair zi = p_z[p], mi = p_m[p], q_prev = p_q[p];
                /* qi = shrink(shifted, t), t being >= 0 */
                pair shifted = zi + mi / rho;
                pair_flags above = shifted > t, below = shifted < -t;
                pair qi = (pair)(((pair_flags)(shifted - t) & above)
                                 | ((pair_flags)(shifted + t) & below));
                mi = mi + rho * (zi - qi);
                p_q[p] = qi;
                p_m[p] = mi;
                /* x - x is 0 where x is finite, and |x| <= tol where
                   x <= tol and x >= -tol */
                pair split = zi - qi, dual = qi - q_prev;
                lane_finite &= zi - zi == 0.0;
                lane_finite &= mi - mi == 0.0;
                lane_done &= split <= tol;
                lane_done &= split >= -tol;
                lane_done &= dual <= tol;
                lane_done &= dual >= -tol;
            }
            finite[h] = lane_finite;
            done[h] = lane_done;
        }
        for (int64_t l = 0; l < LANES; l++) {
            int64_t c = problem[l];
            if (c < 0)
                continue;
            int ok = finite[l / 2][l % 2] != 0, stop = done[l / 2][l % 2] != 0;
            it[l]++;
            if (ok && !stop && it[l] < max_iter)
                continue;
            for (int64_t i = 0; i < k; i++) {
                z[c * k + i] = zl[i * LANES + l];
                q[c * k + i] = ql[i * LANES + l];
                m[c * k + i] = ml[i * LANES + l];
            }
            if (!ok) {
                if (diverged == 0 || it[l] < diverged)
                    diverged = it[l];
            } else {
                iterations[c] = it[l];
                converged[c] = (unsigned char)stop;
            }
            problem[l] = next < n ? next++ : -1;
            it[l] = 0;
            running -= problem[l] < 0;
            admm_lane(k, l, problem[l], inverse, ptx, inv, b, ql, ml);
        }
    }
    return diverged;
}

/* hgdl_laplacian: the dense normalized hypergraph Laplacian of an
   (n, m) incidence H in canonical CSC (indptr, rows ascending within a
   column, values). scale holds 1 / sqrt(d(v)) per vertex, edge_scale
   W(e) / delta(e) per edge. With g = scale[v] * H(v, e) and
   h = g * edge_scale[e],
       Theta(i, j) = sum_e h(i, e) g(j, e),
   summed from 0 over ascending e, so a pair that shares no edge keeps
   Theta = 0. Then L = I - Theta is made exactly symmetric as
   (L + L^T) * 0.5, off the diagonal from 0.0 - Theta(i, j). lap is the
   (n, n) row-major output, zeroed here; g and h are scratch of the
   longest column's length. */
void hgdl_laplacian(int64_t n, int64_t m, const int64_t *indptr,
                    const int64_t *rows, const double *values,
                    const double *scale, const double *edge_scale,
                    double *lap, double *g, double *h)
{
    for (int64_t p = 0; p < n * n; p++)
        lap[p] = 0.0;
    for (int64_t e = 0; e < m; e++) {
        int64_t start = indptr[e], size = indptr[e + 1] - start;
        const int64_t *members = rows + start;
        for (int64_t p = 0; p < size; p++) {
            g[p] = scale[members[p]] * values[start + p];
            h[p] = g[p] * edge_scale[e];
        }
        for (int64_t p = 0; p < size; p++) {
            double *theta = lap + members[p] * n;
            for (int64_t q = 0; q < size; q++)
                theta[members[q]] += h[p] * g[q];
        }
    }
    for (int64_t i = 0; i < n; i++) {
        double *row = lap + i * n;
        double d = 1.0 - row[i];
        row[i] = (d + d) * 0.5;
        for (int64_t j = i + 1; j < n; j++) {
            double *mirror = lap + j * n + i;
            double sym = ((0.0 - row[j]) + (0.0 - *mirror)) * 0.5;
            row[j] = sym;
            *mirror = sym;
        }
    }
}

/* hgdl_csr_product: y = A x for an (n, c) CSR matrix A (indptr, indices,
   values, read as stored) and x of c rows of K, both row-major; y is
   the (n, K) output. Row i of y is summed from 0 over row i's stored
   entries in order, y_i += a * x_j. */
void hgdl_csr_product(int64_t n, int64_t K, const int64_t *indptr,
                      const int64_t *indices, const double *values,
                      const double *x, double *y)
{
    for (int64_t i = 0; i < n; i++) {
        double *yi = y + i * K;
        for (int64_t k = 0; k < K; k++)
            yi[k] = 0.0;
        for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) {
            double a = values[p];
            const double *xj = x + indices[p] * K;
            for (int64_t k = 0; k < K; k++)
                yi[k] += a * xj[k];
        }
    }
}

/* the terms that numpy's pairwise sum adds in one block, and its
   accumulators in a block */
#define PAIRWISE_BLOCK 128
#define ACCUMULATORS 8

/* term: term i of a sum that hgdl_saf forms, a[i] * b[i], or with
   squares 1, the square of a[i] - b[i] */
static inline __attribute__((always_inline)) double
term(const double *a, const double *b, int64_t i, int squares)
{
    double diff = a[i] - b[i];
    return squares ? diff * diff : a[i] * b[i];
}

/* block_sum: count <= PAIRWISE_BLOCK terms summed as numpy's pairwise
   sum adds one block: fewer than ACCUMULATORS one by one from 0; else
   the first ACCUMULATORS terms start the accumulators, each later whole
   round of them adds one term to each, the accumulators are added as
   ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the terms
   left over are added to that one by one */
static inline __attribute__((always_inline)) double
block_sum(const double *a, const double *b, int64_t count, int squares)
{
    int64_t i;
    double sum = 0.0;
    if (count < ACCUMULATORS) {
        for (i = 0; i < count; i++)
            sum += term(a, b, i, squares);
        return sum;
    }
    double r[ACCUMULATORS];
    for (int64_t p = 0; p < ACCUMULATORS; p++)
        r[p] = term(a, b, p, squares);
    for (i = ACCUMULATORS; i < count - count % ACCUMULATORS;
         i += ACCUMULATORS)
        for (int64_t p = 0; p < ACCUMULATORS; p++)
            r[p] += term(a, b, i + p, squares);
    sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < count; i++)
        sum += term(a, b, i, squares);
    return sum;
}

/* pairwise_sum: count terms summed as numpy's pairwise sum adds them:
   one block, or past PAIRWISE_BLOCK terms the first half, rounded down
   to a multiple of ACCUMULATORS, and the rest, each summed so, then
   added */
static double pairwise_sum(const double *a, const double *b, int64_t count,
                           int squares)
{
    if (count <= PAIRWISE_BLOCK)
        return block_sum(a, b, count, squares);
    int64_t half = count / 2 - count / 2 % ACCUMULATORS;
    return pairwise_sum(a, b, half, squares)
           + pairwise_sum(a + half, b + half, count - half, squares);
}

/* row_sum: np.sum(terms, axis=1) of one row of dim terms, which numpy
   adds to the +0.0 it starts the row's output from */
static inline __attribute__((always_inline)) double
row_sum(const double *a, const double *b, int64_t dim, int squares)
{
    return 0.0 + (dim <= PAIRWISE_BLOCK ? block_sum(a, b, dim, squares)
                                        : pairwise_sum(a, b, dim, squares));
}

/* hgdl_saf: the sums of hgdl.hypergraph.build_saf_hypergraph for n
   centers of k neighbors each. points is (n, dim) row-major, row c
   holding point c, and neighbors (n, k), row c holding center c's
   neighbors. With P_c the rows of center c's neighbors and x_c its own,
   dist gets the (n, k) distances |P_c[a] - x_c| and, where attention is
   not 0, ptx the (n, k) P_c x_c and gram the (n, k, k) P_c P_c^T, its
   entries (a, b) and (b, a) equal; else ptx and gram are not read or
   written. Each entry is the square root of np.sum of the squared
   differences, or np.sum of the products, along the contiguous axis
   of the rows, as numpy sums a row (row_sum), so each bit is that of
   the numpy row sums of rows gathered by neighbor rank. */
void hgdl_saf(int64_t n, int64_t dim, int64_t k, const double *points,
              const int64_t *neighbors, int64_t attention, double *dist,
              double *ptx, double *gram)
{
    for (int64_t c = 0; c < n; c++) {
        const double *x = points + c * dim;
        const int64_t *near = neighbors + c * k;
        for (int64_t a = 0; a < k; a++) {
            const double *pa = points + near[a] * dim;
            dist[c * k + a] = sqrt(row_sum(pa, x, dim, 1));
            if (!attention)
                continue;
            ptx[c * k + a] = row_sum(pa, x, dim, 0);
            for (int64_t b = a; b < k; b++) {
                double g = row_sum(pa, points + near[b] * dim, dim, 0);
                gram[(c * k + a) * k + b] = g;
                gram[(c * k + b) * k + a] = g;
            }
        }
    }
}

/* CSV reading, for hgdl.data.load_csv; strtod is declared here, NOPLT */
NOPLT double strtod(const char *text, char **end);

/* the statuses of hgdl_csv, which hgdl.data reads by these numbers */
enum { CSV_OK, CSV_RAGGED, CSV_NOT_A_NUMBER, CSV_NOT_A_LABEL, CSV_NOT_UTF8,
       CSV_UNDECIDED, CSV_FULL };

/* the bytes that float() and int() strip from an ASCII token */
static inline __attribute__((always_inline)) int
ascii_space(unsigned char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/* the length of the character at s, of n > 0 UTF-8 bytes, if it is one
   that str.isspace() accepts, so str.strip() removes: ASCII \t to \r,
   \x1c to space, U+0085, U+00A0, U+1680, U+2000 to U+200A, U+2028,
   U+2029, U+202F, U+205F and U+3000; else 0 */
static inline __attribute__((always_inline)) int64_t
space_length(const unsigned char *s, int64_t n)
{
    if ((s[0] >= '\t' && s[0] <= '\r') || (s[0] >= 0x1c && s[0] <= ' '))
        return 1;
    if (n >= 2 && s[0] == 0xc2 && (s[1] == 0x85 || s[1] == 0xa0))
        return 2;
    if (n < 3 || s[0] < 0xe1 || s[0] > 0xe3)
        return 0;
    unsigned code = (s[0] & 0xfu) << 12 | (s[1] & 0x3fu) << 6
                    | (s[2] & 0x3fu);
    return code == 0x1680 || (code >= 0x2000 && code <= 0x200a)
           || code == 0x2028 || code == 0x2029 || code == 0x202f
           || code == 0x205f || code == 0x3000 ? 3 : 0;
}

/* the index past the str.isspace() characters from s[i] on */
static inline __attribute__((always_inline)) int64_t
skip_space(const unsigned char *s, int64_t n, int64_t i)
{
    int64_t step;
    while (i < n && (step = space_length(s + i, n - i)) > 0)
        i += step;
    return i;
}

/* 1 if the n bytes at s are UTF-8 as Python's strict decoder reads it:
   no overlong form, no surrogate, nothing past U+10FFFF */
static inline __attribute__((always_inline)) int
utf8(const unsigned char *s, int64_t n)
{
    for (int64_t i = 0; i < n;) {
        unsigned char c = s[i], low = 0x80, high = 0xbf;
        int64_t tail;
        if (c < 0x80) {
            i++;
            continue;
        }
        if (c >= 0xc2 && c <= 0xdf)
            tail = 1;
        else if (c >= 0xe0 && c <= 0xef)
            tail = 2;
        else if (c >= 0xf0 && c <= 0xf4)
            tail = 3;
        else
            return 0;
        if (c == 0xe0)
            low = 0xa0;
        else if (c == 0xed)
            high = 0x9f;
        else if (c == 0xf0)
            low = 0x90;
        else if (c == 0xf4)
            high = 0x8f;
        if (n - i <= tail || s[i + 1] < low || s[i + 1] > high)
            return 0;
        for (int64_t k = 2; k <= tail; k++)
            if ((s[i + k] & 0xc0) != 0x80)
                return 0;
        i += tail + 1;
    }
    return 1;
}

/* copies the digits from s[i] on to *out, dropping each '_' that stands
   between two digits, as float() and int() do; returns the index past
   the run, which is at any other '_' */
static inline __attribute__((always_inline)) int64_t
digits(const unsigned char *s, int64_t n, int64_t i, char **out)
{
    char *p = *out;
    for (int64_t start = i; i < n; i++) {
        if (s[i] >= '0' && s[i] <= '9')
            *p++ = (char)s[i];
        else if (!(s[i] == '_' && i > start && i + 1 < n
                   && s[i + 1] >= '0' && s[i + 1] <= '9'))
            break;
    }
    *out = p;
    return i;
}

/* 1 if the n bytes at s are the lowercase word w in any case */
static inline __attribute__((always_inline)) int
word(const unsigned char *s, int64_t n, const char *w)
{
    int64_t k = 0;
    while (k < n && w[k] != '\0' && (s[k] | 0x20) == w[k])
        k++;
    return k == n && w[k] == '\0';
}

/* float() of the n ASCII bytes at s: returns 1 and sets *value, or 0
   where float() raises ValueError. The digits go to copy, with the
   decimal point moved into the exponent, so strtod reads an integer
   mantissa whatever LC_NUMERIC is, and rounds correctly, as float()
   does. copy holds n + 24 bytes. */
static inline __attribute__((always_inline)) int
read_double(const unsigned char *s, int64_t n, char *copy, double *value)
{
    int64_t i = 0;
    while (i < n && ascii_space(s[i]))
        i++;
    while (n > i && ascii_space(s[n - 1]))
        n--;
    int negative = i < n && s[i] == '-';
    if (i < n && (s[i] == '-' || s[i] == '+'))
        i++;
    if (i < n && (s[i] | 0x20) >= 'a' && (s[i] | 0x20) <= 'z') {
        if (word(s + i, n - i, "nan"))
            *value = negative ? -(double)NAN : (double)NAN;
        else if (word(s + i, n - i, "inf") || word(s + i, n - i, "infinity"))
            *value = negative ? -(double)INFINITY : (double)INFINITY;
        else
            return 0;
        return 1;
    }
    char *p = copy, *mark;
    if (negative)
        *p++ = '-';
    mark = p;
    i = digits(s, n, i, &p);
    int64_t exponent = 0, shift = 0;
    if (i < n && s[i] == '.') {
        char *point = p;
        i = digits(s, n, i + 1, &p);
        shift = p - point;
    }
    if (p == mark)
        return 0;
    if (i < n && (s[i] | 0x20) == 'e') {
        int down = ++i < n && s[i] == '-';
        if (i < n && (s[i] == '-' || s[i] == '+'))
            i++;
        /* the exponent's digits, read from copy and then overwritten;
           a value past 10^15 is 0 or inf either way */
        char *e = p, *q = p;
        i = digits(s, n, i, &q);
        if (q == e)
            return 0;
        for (; e < q; e++)
            if (exponent < 100000000000000)
                exponent = exponent * 10 + (*e - '0');
        if (down)
            exponent = -exponent;
    }
    if (i != n)
        return 0;
    exponent -= shift;
    *p++ = 'e';
    if (exponent < 0) {
        *p++ = '-';
        exponent = -exponent;
    }
    char reversed[24];
    int k = 0;
    do {
        reversed[k++] = (char)('0' + exponent % 10);
        exponent /= 10;
    } while (exponent > 0);
    while (k > 0)
        *p++ = reversed[--k];
    *p = '\0';
    *value = strtod(copy, NULL);
    return 1;
}

/* int() of the n ASCII bytes at s: returns 1 and sets *value, or 0 where
   int() raises ValueError or the value lies outside int64 */
static inline __attribute__((always_inline)) int
read_label(const unsigned char *s, int64_t n, char *copy, int64_t *value)
{
    int64_t i = 0;
    while (i < n && ascii_space(s[i]))
        i++;
    while (n > i && ascii_space(s[n - 1]))
        n--;
    int negative = i < n && s[i] == '-';
    if (i < n && (s[i] == '-' || s[i] == '+'))
        i++;
    char *p = copy;
    if (digits(s, n, i, &p) != n || p == copy)
        return 0;
    uint64_t limit = negative ? (uint64_t)1 << 63 : ((uint64_t)1 << 63) - 1;
    uint64_t magnitude = 0;
    for (char *d = copy; d < p; d++) {
        uint64_t digit = (uint64_t)(*d - '0');
        if (magnitude > (limit - digit) / 10)
            return 0;
        magnitude = magnitude * 10 + digit;
    }
    *value = negative && magnitude > 0 ? -(int64_t)(magnitude - 1) - 1
                                       : (int64_t)magnitude;
    return 1;
}

/* reads the cell at data[*pos] as csv's excel dialect does: a cell that
   starts with '"' is quoted up to the next lone '"', with "" for a '"',
   and any text after that quote is kept; an unquoted cell runs to the
   next ',' or line end. \n, \r\n and \r each end a line, and add one to
   *lines, inside quotes too. Copies the cell to cell, returns its
   length, sets *more to 1 if a cell of the same row follows and *high
   to 1 if a byte of the cell is not ASCII. */
static inline __attribute__((always_inline)) int64_t
read_cell(const unsigned char *data, int64_t size, int64_t *pos,
          int64_t *lines, unsigned char *cell, int *more, int *high)
{
    int64_t p = *pos, length = 0;
    unsigned char seen = 0;
    *more = 0;
    if (p < size && data[p] == '"') {
        for (p++; p < size; p++) {
            unsigned char c = data[p];
            if (c == '"') {
                if (p + 1 < size && data[p + 1] == '"') {
                    cell[length++] = '"';
                    p++;
                    continue;
                }
                p++;
                break;
            }
            if (c == '\n' || (c == '\r' && (p + 1 == size
                                            || data[p + 1] != '\n')))
                (*lines)++;
            seen |= c;
            cell[length++] = c;
        }
    }
    for (; p < size; p++) {
        unsigned char c = data[p];
        if (c == ',') {
            *more = 1;
            p++;
            break;
        }
        if (c == '\n' || c == '\r') {
            p += c == '\r' && p + 1 < size && data[p + 1] == '\n' ? 2 : 1;
            (*lines)++;
            break;
        }
        seen |= c;
        cell[length++] = c;
    }
    *pos = p;
    *high = seen >= 0x80;
    return length;
}

/* 1 if the n UTF-8 bytes at s, stripped as by str.strip(), are "label" */
static inline __attribute__((always_inline)) int
is_label(const unsigned char *s, int64_t n)
{
    static const char name[] = "label";
    int64_t i = skip_space(s, n, 0);
    for (int k = 0; k < 5; k++, i++)
        if (i == n || s[i] != name[k])
            return 0;
    return skip_space(s, n, i) == n;
}

/* hgdl_csv: reads the size bytes at data, a CSV file, row by row as
   hgdl.data.load_csv did with csv.reader and float() and int(), but for
   ASCII cells only: a cell with a non-ASCII byte is a fault where a
   number or label is read. A leading UTF-8 byte-order mark is skipped.
   A row whose cells all strip to nothing, as by str.strip(), is skipped.
   The first other row is a header where header is 1, or where header is
   0 and one of its ASCII cells is not a number; a header whose last cell
   strips to "label" gives a label column. Every later row has that row's
   width; its feature cells go to values, row-major, which holds capacity
   doubles, and its label to labels, which holds label_capacity.

   info receives [the rows read, their width, or -1 with no non-blank
   row, 1 if they end in a label, the line of a fault, the cells of the
   fault's row, the length of the fault's cell, copied to token]. Lines
   count as csv's reader.line_num: to the end of the row, with a line
   end in quotes counted. Returns CSV_OK, or at the first fault: the row
   is CSV_RAGGED; CSV_NOT_A_NUMBER or CSV_NOT_A_LABEL at its first bad
   cell; a cell is CSV_NOT_UTF8; CSV_UNDECIDED where header is 0, the
   first row's ASCII cells are numbers, and one of its other cells is not
   (that cell); or CSV_FULL where an output would overflow. scratch holds
   2 size + 64 bytes, token size. */
int64_t hgdl_csv(int64_t size, const char *data, int64_t header,
                 int64_t capacity, double *values, int64_t label_capacity,
                 int64_t *labels, char *scratch, char *token, int64_t *info)
{
    const unsigned char *bytes = (const unsigned char *)data;
    unsigned char *cell = (unsigned char *)scratch;
    char *copy = scratch + size + 8;
    int64_t pos = 0, lines = 0, rows = 0, width = -1, dim = 0;
    int64_t has_labels = 0, status = CSV_OK, fields = 0, length = 0;
    if (size >= 3 && bytes[0] == 0xef && bytes[1] == 0xbb && bytes[2] == 0xbf)
        pos = 3;
    while (pos < size) {
        int more = 1, nonblank = 0, label = 0, ascii_fault = 0;
        int64_t base = rows * dim;
        /* a fault is kept in status until the row is known not blank */
        for (fields = 0; more; fields++) {
            int high, read = 0;
            int64_t fault = CSV_OK;
            int64_t n = read_cell(bytes, size, &pos, &lines, cell, &more,
                                  &high);
            if (high && !utf8(cell, n)) {
                fault = CSV_NOT_UTF8;
            } else if (width < 0) {
                if (fields >= capacity)
                    fault = CSV_FULL;
                else if (!(read = !high && read_double(cell, n, copy,
                                                       values + fields)))
                    fault = high ? CSV_UNDECIDED : CSV_OK;
                ascii_fault |= !read && !high;
                label = is_label(cell, n);
            } else if (fields < dim) {
                if (base + fields >= capacity)
                    fault = CSV_FULL;
                else if (!(read = !high && read_double(cell, n, copy,
                                                       values + base
                                                       + fields)))
                    fault = CSV_NOT_A_NUMBER;
            } else if (has_labels && fields == dim) {
                if (rows >= label_capacity)
                    fault = CSV_FULL;
                else if (!(read = !high && read_label(cell, n, copy,
                                                      labels + rows)))
                    fault = CSV_NOT_A_LABEL;
            }
            int stop = fault == CSV_NOT_UTF8 || fault == CSV_FULL;
            if (stop || (fault != CSV_OK && status == CSV_OK)) {
                status = fault;
                length = n;
                for (int64_t k = 0; k < n; k++)
                    token[k] = (char)cell[k];
            }
            if (stop)
                goto done;
            if (read || skip_space(cell, n, 0) < n)
                nonblank = 1;
        }
        if (!nonblank) {
            status = CSV_OK;
        } else if (width < 0) {
            width = fields;
            if (header || ascii_fault) {
                has_labels = label;
                dim = width - has_labels;
                status = CSV_OK;
            } else if (status != CSV_OK) {
                goto done;
            } else {
                dim = width;
                rows = 1;
            }
        } else if (fields != width) {
            status = CSV_RAGGED;
            goto done;
        } else if (status != CSV_OK) {
            goto done;
        } else {
            rows++;
        }
    }
done:
    info[0] = rows;
    info[1] = width;
    info[2] = has_labels;
    info[3] = lines + !(pos > 0 && (bytes[pos - 1] == '\n'
                                    || bytes[pos - 1] == '\r'));
    info[4] = fields;
    info[5] = length;
    return status;
}
