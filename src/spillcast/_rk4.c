/* The RK4 day loop of spillcast.epimodel, compiled.
 *
 * spillcast_advance integrates n days exactly as epimodel._advance does:
 * the right-hand side of epimodel._day_rhs with the same expressions in
 * the same order, the four RK4 stages, the per-value negative clamp and
 * its count, R0 at the start of each day with r0.r0's zero-denominator
 * rule, and the daily BLOWUP_LIMIT check.  Python floats are IEEE
 * doubles, so with no fused multiply-add (-ffp-contract=off) and no
 * -ffast-math every value equals the Python loop's bit for bit.
 *
 * epimodel builds this file on first use:
 *     cc -O2 -fPIC -shared -ffp-contract=off -o _rk4.so _rk4.c
 */

#include <math.h>
#include <stdint.h>

#define N_RATES 16
#define N_COMP 15
#define N_STATE 16  /* the compartments, then the new-infection accumulator */

/* Return codes.  epimodel._KERNEL_ERRORS maps them to exceptions, except
 * DIVISION_BY_ZERO: there epimodel re-runs the span in Python, which
 * raises its own ZeroDivisionError on that day. */
enum {
    OK = 0,
    BIRD_DENOMINATOR = 1,    /* ZeroDenominator in r0.r0_bird */
    MOSQUITO_MORTALITY = 2,  /* ZeroDenominator in r0.r0_mosquito */
    DIVISION_BY_ZERO = 3,    /* an R0 denominator underflowed to zero */
    BLOW_UP = 4,
};

/* One day's rates in epimodel._RATE_KEYS order, the loss-rate sums that
 * _day_rhs forms once per day, and the carrying capacity. */
typedef struct {
    double phi_m, nu_m, mu_a, mu_m, pdr, b_bm, b_mb, b_mh,
           phi_b, mat_b, mu_b, delta_b, lam_b, mu_wb, eps_h, gam_h;
    double aquatic_out, m_e_out, bird_young_out, b_e_out, b_i_out;
    double k_cap;
} Day;

static void day_init(Day *d, const double *r, double k_cap)
{
    d->phi_m = r[0];
    d->nu_m = r[1];
    d->mu_a = r[2];
    d->mu_m = r[3];
    d->pdr = r[4];
    d->b_bm = r[5];
    d->b_mb = r[6];
    d->b_mh = r[7];
    d->phi_b = r[8];
    d->mat_b = r[9];
    d->mu_b = r[10];
    d->delta_b = r[11];
    d->lam_b = r[12];
    d->mu_wb = r[13];
    d->eps_h = r[14];
    d->gam_h = r[15];
    d->aquatic_out = d->nu_m + d->mu_a;
    d->m_e_out = d->pdr + d->mu_m;
    d->bird_young_out = d->mat_b + d->mu_b;
    d->b_e_out = d->delta_b + d->mu_b;
    d->b_i_out = d->lam_b + d->mu_wb + d->mu_b;
    d->k_cap = k_cap;
}

/* _day_rhs: the 15 derivatives, then the rate of new human infections. */
static void rhs(const Day *d, const double *y, double *dy)
{
    const double h_s = y[0], h_e = y[1], h_i = y[2], h_r = y[3];
    const double e_m = y[4], a_m = y[5], m_s = y[6], m_e = y[7], m_i = y[8];
    const double e_b = y[9], f_b = y[10], b_s = y[11], b_e = y[12],
                 b_i = y[13], b_r = y[14];
    const double n_b = b_s + b_e + b_i + b_r;
    const double n_h = h_s + h_e + h_i + h_r;
    double foi_m, foi_b, foi_h, room, new_h;

    if (n_b > 0.0) {
        foi_m = d->b_bm * b_i / n_b;
        foi_b = d->b_mb * m_i / n_b;
    } else {
        foi_m = foi_b = 0.0;
    }
    foi_h = n_h > 0.0 ? d->b_mh * m_i / n_h : 0.0;
    room = 1.0 - a_m / d->k_cap;
    new_h = foi_h * h_s;

    dy[0] = -new_h;
    dy[1] = new_h - d->eps_h * h_e;
    dy[2] = d->eps_h * h_e - d->gam_h * h_i;
    dy[3] = d->gam_h * h_i;
    dy[4] = d->phi_m * (m_s + m_e + m_i) - d->aquatic_out * e_m;
    dy[5] = d->nu_m * e_m * (room > 0.0 ? room : 0.0) - d->aquatic_out * a_m;
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

/* r0.r0 of the day's rates and susceptible counts, or an error code. */
static int day_r0(const Day *d, double m_s, double b_s, double *out)
{
    const double d1 = d->delta_b + d->mu_b;
    const double d2 = d->lam_b + d->mu_wb + d->mu_b;
    const double bird_num = d->b_bm * m_s * d->delta_b;
    const double mosq_num = d->b_mb * b_s * d->pdr;
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
    if (d->mu_m <= 0.0) {
        if (mosq_num != 0.0)
            return MOSQUITO_MORTALITY;
        mosquito = 0.0;
    } else {
        denominator = d->mu_m * (d->pdr + d->mu_m);
        if (denominator == 0.0)
            return DIVISION_BY_ZERO;
        mosquito = mosq_num / denominator;
    }
    *out = sqrt(bird * mosquito);
    return OK;
}

/* Integrate n days from the state y (N_STATE values, updated in place).
 * rates is (n, N_RATES) and states (n, N_COMP), both row-major; day i's
 * start state, adult mosquitoes, R0 and expected new reported cases go
 * to row i of the outputs.  Adds the number of clamped values to
 * *clamps.  On an error, returns its code with the day's index in *day;
 * y and the outputs from that day on are then undefined. */
int spillcast_advance(int64_t n, int64_t steps, double h, double half,
                      double sixth, double rho, double blowup_limit,
                      const double *rates, const double *k_cap, double *y,
                      double *states, double *m, double *r0,
                      double *new_inf, int64_t *clamps, int64_t *day)
{
    double k1[N_STATE], k2[N_STATE], k3[N_STATE], k4[N_STATE], tmp[N_STATE];
    Day d;
    int64_t i, s;
    int j, status;

    for (i = 0; i < n; i++) {
        double cum_before;

        *day = i;
        for (j = 0; j < N_COMP; j++)
            states[i * N_COMP + j] = y[j];
        m[i] = y[6] + y[7] + y[8];
        day_init(&d, rates + i * N_RATES, k_cap[i]);
        status = day_r0(&d, y[6], y[11], &r0[i]);
        if (status != OK)
            return status;

        cum_before = y[15];
        for (s = 0; s < steps; s++) {
            rhs(&d, y, k1);
            for (j = 0; j < N_COMP; j++)
                tmp[j] = y[j] + half * k1[j];
            rhs(&d, tmp, k2);
            for (j = 0; j < N_COMP; j++)
                tmp[j] = y[j] + half * k2[j];
            rhs(&d, tmp, k3);
            for (j = 0; j < N_COMP; j++)
                tmp[j] = y[j] + h * k3[j];
            rhs(&d, tmp, k4);
            for (j = 0; j < N_STATE; j++)
                y[j] += sixth * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
            for (j = 0; j < N_COMP; j++) {
                if (y[j] < 0.0) {
                    y[j] = 0.0;
                    *clamps += 1;
                }
            }
        }
        new_inf[i] = rho * (y[15] - cum_before);
        for (j = 0; j < N_STATE; j++) {
            if (y[j] > blowup_limit)
                return BLOW_UP;
        }
    }
    return OK;
}
