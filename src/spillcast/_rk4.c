/* The RK4 day loop of spillcast.epimodel, compiled, in lanes.
 *
 * spillcast_advance integrates the same n days of up to MAX_LANES
 * independent runs exactly as epimodel._advance integrates each alone:
 * the right-hand side of epimodel._day_rhs with the same expressions in
 * the same order, the four RK4 stages, the per-value negative clamp and
 * its count, R0 at the start of each day with r0.r0's zero-denominator
 * rule, and the daily BLOWUP_LIMIT check.  Python floats are IEEE
 * doubles, so with no fused multiply-add (-ffp-contract=off) and no
 * -ffast-math every value equals the Python loop's bit for bit.
 *
 * Lanes.  Runs advance side by side, one per lane of a GCC vector of
 * doubles (structure of arrays: vector j holds compartment j of every
 * run).  Each lane has its own rate rows, K, start state, output rows
 * and clamp count.  The branches of the Python loop (n_b > 0, n_h > 0,
 * room > 0, the clamp) are mask selects: both sides are computed for
 * every lane and the mask picks one bit for bit, so each lane gets the
 * IEEE result its own branch gives, NaN included.  The lane body at the
 * end of this file is compiled four times, by including the file into
 * itself, each time binding the lane type and the select:
 *   1 lane:  plain doubles, for single runs, which a wider vector with
 *            one busy lane would slow down;
 *   2 lanes: 128-bit vectors, which every x86-64 CPU has (SSE2);
 *   4 lanes: 256-bit vectors, compiled for AVX2 only (target("avx2"));
 *   8 lanes: 512-bit vectors, compiled for AVX-512F only
 *            (target("avx512f")).
 * spillcast_width() names the widest body the CPU runs, from
 * __builtin_cpu_supports at run time: 8 with AVX-512F, 4 with AVX2, else
 * 2.  spillcast_advance runs 1 lane in the 1-lane body, 5 to 8 lanes in
 * the 8-lane body where the width is 8, and every other call as 4-lane
 * calls (width 4 or 8) or as pairs (width 2).  So the library stays
 * portable (no -march=native) and one build runs the widest vectors the
 * CPU allows.  Neither AVX2 nor AVX-512F brings FMA into the build, and
 * -ffp-contract=off forbids contraction anyway.  GCC splits a vector
 * wider than the CPU's registers into slow code (4 lanes on 128-bit
 * hardware ran slower than the 1-lane loop), hence one body per register
 * width.  Defining SPILLCAST_NO_AVX512 leaves out the 8-lane body;
 * defining SPILLCAST_NO_AVX2 leaves out both the 4- and the 8-lane body,
 * which is also the build on other CPUs and on compilers without the
 * target attribute, and epimodel retries with it when a build fails.
 *
 * The disease-free day.  A run with no infection in it (the onset runs
 * of the warming trend, a seeded run before its pulse) only moves six
 * compartments: E_M, A_M, M_S, E_B, F_B and B_S.  A day whose every lane
 * has (a) H_E, H_I, H_R, M_E, M_I, B_E, B_I, B_R and the accumulator at
 * +0.0, bit for bit (a -0.0 or a subnormal fails), (b) H_S finite and > 0
 * and (c) all 16 rates and the five loss-rate sums finite with the sign
 * bit clear integrates only those six, in the same RK4 steps, with the
 * expressions of the full right-hand side and each dead input written as
 * a literal +0.0 (n_b = b_s + 0.0 + 0.0 + 0.0, 0.0 * m_s for foi_m * m_s),
 * which GCC does not fold without -ffast-math.  That is exact: every
 * force of infection is then +0.0 in both branches of its select, each
 * infection derivative is +0.0 or -0.0, so a dead value stays +0.0 after
 * every stage and step (+0.0 + -0.0 is +0.0) and is never clamped,
 * H_S + -0.0 is H_S, and each live value rounds as in the full body; the
 * sums are checked because a finite rate plus a finite rate can be inf,
 * and inf * 0.0 is NaN.  The one input that would still break it is a
 * non-finite M_S or B_S (0.0 * inf is NaN, which the full body would
 * carry into M_E or B_E), so the day adds m_s - m_s + b_s - b_s over
 * every right-hand-side input; unless that sum is 0 at the end, the day
 * is run again in the full body from its start state and clamp counts.
 * R0, the outputs, the clamp count and the BLOW_UP check are those of the
 * full body; counts[lanes + l] counts the disease-free days of lane l.
 * Each right-hand side then divides once (A_M / K) instead of four times.
 * epimodel._advance, the Python loop, has no such shortcut: it stays the
 * oracle.
 *
 * Errors.  On a day whose R0 denominator rule or BLOWUP_LIMIT fails in
 * some lane, spillcast_advance returns that code at once, with the lane
 * and the day's index after the clamp and disease-free day counts; the
 * states and outputs of every lane are then undefined.
 * epimodel._KERNEL_ERRORS maps the code
 * of a one-lane call to the exception r0.r0 or _advance raises on that
 * day (DIVISION_BY_ZERO to ZeroDenominator(DENOMINATOR_UNDERFLOW)).
 * After any code from a call of several lanes, epimodel.simulate_runs
 * simulates its runs again one at a time, so that the error raised is
 * the first failing run's, as if the runs had never been batched.
 *
 * epimodel builds this file on first use:
 *     cc -O2 -fpeel-loops -fno-tree-slp-vectorize -fPIC -shared \
 *        -ffp-contract=off -o _rk4.so _rk4.c
 */

#ifndef LANES

#include <math.h>
#include <stdint.h>
#include <string.h>

#define N_RATES 16
#define N_COMP 15
#define N_STATE 16  /* the compartments, then the new-infection accumulator */
#define MAX_LANES 8
#define N_LIVE 6    /* the compartments a disease-free day moves */
#define INF_BITS 0x7ff0000000000000  /* the bits of +inf */

/* Where the six live compartments of a disease-free day are in a state,
 * and the entries that must be +0.0 for one (see the header). */
static const int LIVE[N_LIVE] = {4, 5, 6, 9, 10, 11};
static const int DEAD[] = {1, 2, 3, 7, 8, 12, 13, 14, 15};

/* Return codes. */
enum {
    OK = 0,
    BIRD_DENOMINATOR = 1,    /* ZeroDenominator in r0.r0_bird */
    MOSQUITO_MORTALITY = 2,  /* ZeroDenominator in r0.r0_mosquito */
    DIVISION_BY_ZERO = 3,    /* an R0 denominator underflowed to zero */
    BLOW_UP = 4,
    BAD_LANES = 5,           /* lanes outside 1..MAX_LANES */
};

#if !defined(SPILLCAST_NO_AVX2) && defined(__has_attribute) \
    && (defined(__x86_64__) || defined(__i386__))
#if __has_attribute(target)
#define AVX2_LANES
#ifndef SPILLCAST_NO_AVX512
#define AVX512_LANES
#endif
#endif
#endif

/* The bits of a double. */
static inline uint64_t bits(double v)
{
    uint64_t b;

    memcpy(&b, &v, sizeof b);
    return b;
}

/* r0.r0 of one day's rates (a row in epimodel._RATE_KEYS order) and
 * susceptible counts, or an error code. */
static int day_r0(const double *r, double m_s, double b_s, double *out)
{
    const double mu_m = r[3], pdr = r[4], b_bm = r[5], b_mb = r[6];
    const double mu_b = r[10], delta_b = r[11], lam_b = r[12], mu_wb = r[13];
    const double d1 = delta_b + mu_b;
    const double d2 = lam_b + mu_wb + mu_b;
    const double bird_num = b_bm * m_s * delta_b;
    const double mosq_num = b_mb * b_s * pdr;
    double bird, mosquito, denominator;

    if (d1 <= 0.0 || d2 <= 0.0) {
        if (bird_num != 0.0)
            return BIRD_DENOMINATOR;
        bird = 0.0;
    } else {
        denominator = d1 * d2;
        if (denominator == 0.0)
            return DIVISION_BY_ZERO;
        bird = bird_num / denominator;
    }
    if (mu_m <= 0.0) {
        if (mosq_num != 0.0)
            return MOSQUITO_MORTALITY;
        mosquito = 0.0;
    } else {
        denominator = mu_m * (pdr + mu_m);
        if (denominator == 0.0)
            return DIVISION_BY_ZERO;
        mosquito = mosq_num / denominator;
    }
    *out = sqrt(bird * mosquito);
    return OK;
}

#define PASTE_(a, b) a##_##b
#define PASTE(a, b) PASTE_(a, b)
#define NAME(x) PASTE(x, LANES)  /* advance_1, advance_2, advance_4, ... */
#define INLINE static inline __attribute__((always_inline))

/* Each inclusion below binds LANES; vd, its vector of doubles, and vi,
 * the vector of 64-bit integers a comparison of two vd gives (-1 true,
 * 0 false; 1 and 0 for plain doubles); LANE(v, l), lane l of v;
 * SEL(mask, a, b), a where the mask is set, else b; CLAMP(v, count),
 * the negative clamp of v that adds 1 to count per clamped lane;
 * OVER(mask, v, limit), which sets the mask in the lanes where v exceeds
 * the limit; BITS(v), the bits of v as a vi; RHS, how the right-hand
 * sides (full and disease-free) are compiled; and TARGET, the
 * instruction set of the lane loop.  One lane keeps the shape of a plain
 * scalar loop, which ran fastest: the clamp and the limit check are
 * branches, as the Python loop has them (a select or a mask there sits on
 * the path from one step or day to the next, where the branch is almost
 * never taken), the right-hand side is a function of its own, and the
 * four stage derivatives are kept to the end of the step.  Wider lanes
 * inline the right-hand side, so that it takes the lane loop's TARGET,
 * and add the stages into one running sum as they come (the same
 * additions in the same order): four stages of 16 vectors each spill out
 * of the registers, which made 4 and 8 lanes about 8% slower per
 * run-day, while one lane ran about 7% slower with the running sum. */
#define vd NAME(vd)
#define vi NAME(vi)

typedef double vd_1;
typedef int64_t vi_1;
#define LANE(v, l) (v)
#define SEL(mask, a, b) ((mask) ? (a) : (b))
#define CLAMP(v, count) if ((v) < 0.0) { (v) = 0.0; (count) += 1; }
#define RHS static __attribute__((noinline))
#define OVER(mask, v, limit) if ((v) > (limit)) (mask) = 1
#define BITS(v) bits(v)
#define LANES 1
#define TARGET
#include "_rk4.c"
#undef LANE
#undef SEL
#undef CLAMP
#undef RHS
#undef OVER
#undef BITS

#define LANE(v, l) ((v)[l])
#define SEL(mask, a, b) ((vd)(((vi)(a) & (mask)) | ((vi)(b) & ~(mask))))
#define CLAMP(v, count) {                                                 \
        const vi negative = (v) < 0.0;                                    \
        (v) = SEL(negative, (vd){0.0}, (v));                              \
        (count) += negative & 1;                                          \
    }
#define RHS INLINE
#define OVER(mask, v, limit) (mask) |= (v) > (limit)
#define BITS(v) ((vi)(v))

typedef double vd_2 __attribute__((vector_size(8 * 2)));
typedef int64_t vi_2 __attribute__((vector_size(8 * 2)));
#define LANES 2
#define TARGET
#include "_rk4.c"

#ifdef AVX2_LANES
typedef double vd_4 __attribute__((vector_size(8 * 4)));
typedef int64_t vi_4 __attribute__((vector_size(8 * 4)));
#define LANES 4
#define TARGET __attribute__((target("avx2")))
#include "_rk4.c"
#endif

#ifdef AVX512_LANES
typedef double vd_8 __attribute__((vector_size(8 * 8)));
typedef int64_t vi_8 __attribute__((vector_size(8 * 8)));
#define LANES 8
#define TARGET __attribute__((target("avx512f")))
#include "_rk4.c"
#endif

/* The most runs one body advances at once on this CPU: 8 where the
 * 8-lane body is built and the CPU has AVX-512F, 4 where the 4-lane body
 * is built and the CPU has AVX2, else 2 (the pairs). */
int spillcast_width(void)
{
#ifdef AVX2_LANES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
#ifdef AVX512_LANES
        if (__builtin_cpu_supports("avx512f"))
            return 8;
#endif
        return 4;
    }
#endif
    return 2;
}

/* Integrate days [0, n) of `lanes` runs side by side.  rows holds, for
 * each lane l, the row rate_row = rows[l] of rates (N_RATES columns)
 * where its day 0 rates are, then the row row = rows[lanes + l] of k_cap
 * and of the outputs where its day 0 is; day i is i rows further on.  It
 * writes the day's start state, adult mosquitoes, R0 and expected new
 * reported cases to states (N_COMP columns), m, r0 and new_inf.  y holds
 * the lanes' states (N_STATE values each) and is updated in place.  The
 * number of clamped values of lane l is added to counts[l] and its number
 * of disease-free days to counts[lanes + l]; on an error,
 * counts[2 * lanes] and counts[2 * lanes + 1] receive the lane and the day
 * (see the header).  Two packed index arrays, not four, because every array
 * argument costs a ctypes conversion on each call. */
int spillcast_advance(int64_t lanes, int64_t n, int64_t steps, double h,
                      double half, double sixth, double rho,
                      double blowup_limit, const double *rates,
                      const double *k_cap, double *states, double *m,
                      double *r0, double *new_inf, double *y,
                      const int64_t *rows, int64_t *counts)
{
    const int64_t *rate_row = rows, *row = rows + lanes;
    int64_t *free_days = counts + lanes, *fail = counts + 2 * lanes;
    int64_t first, part, group;
    int status;

    if (lanes < 1 || lanes > MAX_LANES)
        return BAD_LANES;
    if (lanes == 1)
        return advance_1(1, n, steps, h, half, sixth, rho, blowup_limit,
                         rates, rate_row, k_cap, row, states, m, r0, new_inf,
                         y, counts, free_days, fail);
    group = spillcast_width();
#ifdef AVX512_LANES
    if (group == 8 && lanes > 4)
        return advance_8(lanes, n, steps, h, half, sixth, rho, blowup_limit,
                         rates, rate_row, k_cap, row, states, m, r0, new_inf,
                         y, counts, free_days, fail);
#endif
    if (group > 4)
        group = 4;
    for (first = 0; first < lanes; first += group) {
        part = lanes - first < group ? lanes - first : group;
#ifdef AVX2_LANES
        if (group == 4)
            status = advance_4(part, n, steps, h, half, sixth, rho,
                               blowup_limit, rates, rate_row + first, k_cap,
                               row + first, states, m, r0, new_inf,
                               y + first * N_STATE, counts + first,
                               free_days + first, fail);
        else
#endif
            status = advance_2(part, n, steps, h, half, sixth, rho,
                               blowup_limit, rates, rate_row + first, k_cap,
                               row + first, states, m, r0, new_inf,
                               y + first * N_STATE, counts + first,
                               free_days + first, fail);
        if (status != OK) {
            fail[0] += first;
            return status;
        }
    }
    return OK;
}

#else  /* the lane body, compiled once per LANES */

/* One day's rates in epimodel._RATE_KEYS order, the loss-rate sums that
 * _day_rhs forms once per day, and the carrying capacity, per lane. */
typedef struct {
    vd phi_m, nu_m, mu_a, mu_m, pdr, b_bm, b_mb, b_mh,
       phi_b, mat_b, mu_b, delta_b, lam_b, mu_wb, eps_h, gam_h;
    vd aquatic_out, m_e_out, bird_young_out, b_e_out, b_i_out;
    vd k_cap;
} NAME(Day);

/* _day_rhs: the 15 derivatives, then the rate of new human infections. */
RHS void NAME(rhs)(const NAME(Day) *d, const vd *y, vd *dy)
{
    const vd zero = {0.0};
    const vd h_s = y[0], h_e = y[1], h_i = y[2], h_r = y[3];
    const vd e_m = y[4], a_m = y[5], m_s = y[6], m_e = y[7], m_i = y[8];
    const vd e_b = y[9], f_b = y[10], b_s = y[11], b_e = y[12],
             b_i = y[13], b_r = y[14];
    const vd n_b = b_s + b_e + b_i + b_r;
    const vd n_h = h_s + h_e + h_i + h_r;
    const vi birds = n_b > zero;
    const vd foi_m = SEL(birds, d->b_bm * b_i / n_b, zero);
    const vd foi_b = SEL(birds, d->b_mb * m_i / n_b, zero);
    const vd foi_h = SEL(n_h > zero, d->b_mh * m_i / n_h, zero);
    const vd room = 1.0 - a_m / d->k_cap;
    const vd new_h = foi_h * h_s;

    dy[0] = -new_h;
    dy[1] = new_h - d->eps_h * h_e;
    dy[2] = d->eps_h * h_e - d->gam_h * h_i;
    dy[3] = d->gam_h * h_i;
    dy[4] = d->phi_m * (m_s + m_e + m_i) - d->aquatic_out * e_m;
    dy[5] = d->nu_m * e_m * SEL(room > zero, room, zero)
            - d->aquatic_out * a_m;
    dy[6] = d->nu_m * a_m - foi_m * m_s - d->mu_m * m_s;
    dy[7] = foi_m * m_s - d->m_e_out * m_e;
    dy[8] = d->pdr * m_e - d->mu_m * m_i;
    dy[9] = d->phi_b * n_b - d->bird_young_out * e_b;
    dy[10] = d->mat_b * e_b - d->bird_young_out * f_b;
    dy[11] = d->mat_b * f_b - foi_b * b_s - d->mu_b * b_s;
    dy[12] = foi_b * b_s - d->b_e_out * b_e;
    dy[13] = d->delta_b * b_e - d->b_i_out * b_i;
    dy[14] = d->lam_b * b_i - d->mu_b * b_r;
    dy[15] = new_h;
}

/* The right-hand side of a disease-free day (see the header): the
 * derivatives of the LIVE compartments from their values z, each dead
 * input +0.0, in the expressions of NAME(rhs); adds m_s - m_s + b_s - b_s
 * to *finite. */
RHS void NAME(free_rhs)(const NAME(Day) *d, const vd *z, vd *dz,
                        vd *finite)
{
    const vd zero = {0.0};
    const vd e_m = z[0], a_m = z[1], m_s = z[2], e_b = z[3], f_b = z[4],
             b_s = z[5];
    const vd n_b = b_s + 0.0 + 0.0 + 0.0;
    const vd room = 1.0 - a_m / d->k_cap;

    dz[0] = d->phi_m * (m_s + 0.0 + 0.0) - d->aquatic_out * e_m;
    dz[1] = d->nu_m * e_m * SEL(room > zero, room, zero)
            - d->aquatic_out * a_m;
    dz[2] = d->nu_m * a_m - 0.0 * m_s - d->mu_m * m_s;
    dz[3] = d->phi_b * n_b - d->bird_young_out * e_b;
    dz[4] = d->mat_b * e_b - d->bird_young_out * f_b;
    dz[5] = d->mat_b * f_b - 0.0 * b_s - d->mu_b * b_s;
    *finite = *finite + (m_s - m_s) + (b_s - b_s);
}

/* spillcast_advance for 1 <= lanes <= LANES; lanes past `lanes` repeat
 * lane 0, so they compute what it does and are never read. */
TARGET
static int NAME(advance)(int64_t lanes, int64_t n, int64_t steps, double h,
                         double half, double sixth, double rho,
                         double blowup_limit, const double *rates,
                         const int64_t *rate_row, const double *k_cap,
                         const int64_t *row, double *states, double *m,
                         double *r0, double *new_inf, double *y_io,
                         int64_t *clamps, int64_t *free_days, int64_t *fail)
{
    const vd zero = {0.0}, limit = zero + blowup_limit, inf = zero + INFINITY;
    vd y[N_STATE], k1[N_STATE], tmp[N_STATE];
#if LANES == 1
    vd k2[N_STATE], k3[N_STATE], k4[N_STATE];
#else
    vd k[N_STATE], sum[N_STATE];
#endif
    vd z[N_LIVE], z_k1[N_LIVE], z_k[N_LIVE], z_sum[N_LIVE], z_tmp[N_LIVE];
    vi clamped = {0}, quiet_days = {0};
    const double *lane_rates[LANES];
    int64_t lane_row[LANES];
    NAME(Day) d;
    int64_t i, s;
    int j, l, status;

    for (l = 0; l < LANES; l++) {
        const int src = l < lanes ? l : 0;
        lane_rates[l] = rates + rate_row[src] * N_RATES;
        lane_row[l] = row[src];
        for (j = 0; j < N_STATE; j++)
            LANE(y[j], l) = y_io[src * N_STATE + j];
    }
    for (i = 0; i < n; i++) {
        vd cum_before, new_cases, finite;
        vi big, quiet, count;
        int disease_free = 1;

        for (l = 0; l < lanes; l++) {
            const int64_t o = lane_row[l] + i;

            for (j = 0; j < N_COMP; j++)
                states[o * N_COMP + j] = LANE(y[j], l);
            m[o] = LANE(y[6], l) + LANE(y[7], l) + LANE(y[8], l);
            status = day_r0(lane_rates[l] + i * N_RATES, LANE(y[6], l),
                            LANE(y[11], l), &r0[o]);
            if (status != OK) {
                fail[0] = l;
                fail[1] = i;
                return status;
            }
        }
        for (l = 0; l < LANES; l++) {
            const double *r = lane_rates[l] + i * N_RATES;

            LANE(d.phi_m, l) = r[0];
            LANE(d.nu_m, l) = r[1];
            LANE(d.mu_a, l) = r[2];
            LANE(d.mu_m, l) = r[3];
            LANE(d.pdr, l) = r[4];
            LANE(d.b_bm, l) = r[5];
            LANE(d.b_mb, l) = r[6];
            LANE(d.b_mh, l) = r[7];
            LANE(d.phi_b, l) = r[8];
            LANE(d.mat_b, l) = r[9];
            LANE(d.mu_b, l) = r[10];
            LANE(d.delta_b, l) = r[11];
            LANE(d.lam_b, l) = r[12];
            LANE(d.mu_wb, l) = r[13];
            LANE(d.eps_h, l) = r[14];
            LANE(d.gam_h, l) = r[15];
            LANE(d.k_cap, l) = k_cap[lane_row[l] + i];
            for (j = 0; j < N_RATES; j++)
                disease_free &= bits(r[j]) < INF_BITS;
        }
        d.aquatic_out = d.nu_m + d.mu_a;
        d.m_e_out = d.pdr + d.mu_m;
        d.bird_young_out = d.mat_b + d.mu_b;
        d.b_e_out = d.delta_b + d.mu_b;
        d.b_i_out = d.lam_b + d.mu_wb + d.mu_b;

        cum_before = y[15];
        /* the disease-free day (see the header) */
        quiet = (y[0] > zero) & (y[0] < inf) & (d.aquatic_out < inf)
                & (d.m_e_out < inf) & (d.bird_young_out < inf)
                & (d.b_e_out < inf) & (d.b_i_out < inf);
        for (j = 0; j < (int)(sizeof DEAD / sizeof *DEAD); j++)
            quiet &= BITS(y[DEAD[j]]) == 0;
        for (l = 0; l < LANES; l++)
            disease_free &= LANE(quiet, l) != 0;
        if (disease_free) {
            finite = zero;
            count = clamped;
            for (j = 0; j < N_LIVE; j++)
                z[j] = y[LIVE[j]];
            for (s = 0; s < steps; s++) {
                NAME(free_rhs)(&d, z, z_k1, &finite);
                for (j = 0; j < N_LIVE; j++)
                    z_tmp[j] = z[j] + half * z_k1[j];
                NAME(free_rhs)(&d, z_tmp, z_k, &finite);
                for (j = 0; j < N_LIVE; j++)
                    z_sum[j] = z_k1[j] + 2.0 * z_k[j];
                for (j = 0; j < N_LIVE; j++)
                    z_tmp[j] = z[j] + half * z_k[j];
                NAME(free_rhs)(&d, z_tmp, z_k, &finite);
                for (j = 0; j < N_LIVE; j++)
                    z_sum[j] = z_sum[j] + 2.0 * z_k[j];
                for (j = 0; j < N_LIVE; j++)
                    z_tmp[j] = z[j] + h * z_k[j];
                NAME(free_rhs)(&d, z_tmp, z_k, &finite);
                for (j = 0; j < N_LIVE; j++) {
                    z[j] += sixth * (z_sum[j] + z_k[j]);
                    CLAMP(z[j], count);
                }
            }
            /* a NaN in the sum fails every lane's test */
            for (l = 0; l < LANES; l++)
                disease_free &= LANE(finite, l) == 0.0;
            if (disease_free) {
                for (j = 0; j < N_LIVE; j++)
                    y[LIVE[j]] = z[j];
                clamped = count;
                quiet_days += 1;
            }
        }
        if (!disease_free) {
            for (s = 0; s < steps; s++) {
                NAME(rhs)(&d, y, k1);
                for (j = 0; j < N_COMP; j++)
                    tmp[j] = y[j] + half * k1[j];
#if LANES == 1
                NAME(rhs)(&d, tmp, k2);
                for (j = 0; j < N_COMP; j++)
                    tmp[j] = y[j] + half * k2[j];
                NAME(rhs)(&d, tmp, k3);
                for (j = 0; j < N_COMP; j++)
                    tmp[j] = y[j] + h * k3[j];
                NAME(rhs)(&d, tmp, k4);
                for (j = 0; j < N_STATE; j++)
                    y[j] += sixth * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
#else
                /* k1 + 2 k2 + 2 k3 + k4, added left to right as above, one
                 * stage at a time (see the bindings) */
                NAME(rhs)(&d, tmp, k);
                for (j = 0; j < N_STATE; j++)
                    sum[j] = k1[j] + 2.0 * k[j];
                for (j = 0; j < N_COMP; j++)
                    tmp[j] = y[j] + half * k[j];
                NAME(rhs)(&d, tmp, k);
                for (j = 0; j < N_STATE; j++)
                    sum[j] = sum[j] + 2.0 * k[j];
                for (j = 0; j < N_COMP; j++)
                    tmp[j] = y[j] + h * k[j];
                NAME(rhs)(&d, tmp, k);
                for (j = 0; j < N_STATE; j++)
                    y[j] += sixth * (sum[j] + k[j]);
#endif
                for (j = 0; j < N_COMP; j++) {
                    CLAMP(y[j], clamped);
                }
            }
        }
        new_cases = rho * (y[15] - cum_before);
        big = (vi){0};
        for (j = 0; j < N_STATE; j++)
            OVER(big, y[j], limit);
        for (l = 0; l < lanes; l++) {
            new_inf[lane_row[l] + i] = LANE(new_cases, l);
            if (LANE(big, l)) {
                fail[0] = l;
                fail[1] = i;
                return BLOW_UP;
            }
        }
    }
    for (l = 0; l < lanes; l++) {
        clamps[l] += LANE(clamped, l);
        free_days[l] += LANE(quiet_days, l);
        for (j = 0; j < N_STATE; j++)
            y_io[l * N_STATE + j] = LANE(y[j], l);
    }
    return OK;
}

#undef LANES
#undef TARGET

#endif
