/*
 * ear -- simulation of sound processing in the inner ear, after the
 * SPEC92 benchmark: a cochlear filter bank (second-order resonators at
 * logarithmically spaced center frequencies), half-wave rectification,
 * and a leaky-integrator hair-cell stage, driven by a synthesized
 * signal.
 *
 * Numerical category: per-sample loops over the filter channels.
 *
 * Input: "channels samples tone1 tone2 noise_seed" as integers
 * (tone frequencies in Hz at a 8000 Hz sample rate; noise_seed of 0
 * disables the noise term).
 */

#define MAX_CHANNELS 24
#define PI 3.14159265358979

double coef_b0[MAX_CHANNELS];
double coef_a1[MAX_CHANNELS];
double coef_a2[MAX_CHANNELS];
double state_1[MAX_CHANNELS];
double state_2[MAX_CHANNELS];
double hair_cell[MAX_CHANNELS];
double channel_energy[MAX_CHANNELS];

int channel_count;
int sample_count;
int tone1_hz;
int tone2_hz;
int noise_seed;

void die(char *msg)
{
    puts(msg);
    exit(1);
}

int read_int(void)
{
    int c, value, sign;
    value = 0;
    sign = 1;
    c = getchar();
    while (c == ' ' || c == '\n' || c == '\t' || c == '\r')
        c = getchar();
    if (c == '-') {
        sign = -1;
        c = getchar();
    }
    if (c < '0' || c > '9')
        die("expected integer");
    while (c >= '0' && c <= '9') {
        value = value * 10 + (c - '0');
        c = getchar();
    }
    return sign * value;
}

/* Resonator center frequencies spaced logarithmically 100..3200 Hz. */
double center_frequency(int channel)
{
    double fraction = (double)channel / (double)(channel_count - 1);
    return 100.0 * exp(fraction * log(32.0));
}

void design_filters(void)
{
    int ch;
    for (ch = 0; ch < channel_count; ch++) {
        double freq = center_frequency(ch);
        double omega = 2.0 * PI * freq / 8000.0;
        double r = 0.975 - 0.0005 * (double)ch;
        if (r < 0.5)
            r = 0.5;
        /* Unit-ish peak gain so channels compete fairly. */
        coef_b0[ch] = 1.0 - r;
        coef_a1[ch] = 2.0 * r * cos(omega);
        coef_a2[ch] = -(r * r);
        state_1[ch] = 0.0;
        state_2[ch] = 0.0;
        hair_cell[ch] = 0.0;
        channel_energy[ch] = 0.0;
    }
}

double synthesize_sample(int t)
{
    double sample =
        0.6 * sin(2.0 * PI * (double)tone1_hz * (double)t / 8000.0) +
        0.4 * sin(2.0 * PI * (double)tone2_hz * (double)t / 8000.0);
    if (noise_seed != 0)
        sample += ((double)(rand() % 200) - 100.0) / 1000.0;
    return sample;
}

/* One cochlear step: resonate, rectify, integrate. */
void process_sample(double sample)
{
    int ch;
    for (ch = 0; ch < channel_count; ch++) {
        double resonated = coef_b0[ch] * sample +
                           coef_a1[ch] * state_1[ch] +
                           coef_a2[ch] * state_2[ch];
        double rectified;
        state_2[ch] = state_1[ch];
        state_1[ch] = resonated;
        rectified = resonated > 0.0 ? resonated : 0.0;
        hair_cell[ch] = 0.995 * hair_cell[ch] + 0.005 * rectified;
        channel_energy[ch] += hair_cell[ch] * hair_cell[ch];
    }
}

int loudest_channel(void)
{
    int ch, best;
    best = 0;
    for (ch = 1; ch < channel_count; ch++)
        if (channel_energy[ch] > channel_energy[best])
            best = ch;
    return best;
}

double total_energy(void)
{
    int ch;
    double total = 0.0;
    for (ch = 0; ch < channel_count; ch++)
        total += channel_energy[ch];
    return total;
}

int main(void)
{
    int t, best;
    channel_count = read_int();
    sample_count = read_int();
    tone1_hz = read_int();
    tone2_hz = read_int();
    noise_seed = read_int();
    if (channel_count < 2 || channel_count > MAX_CHANNELS)
        die("bad channel count");
    if (sample_count < 1 || sample_count > 4000)
        die("bad sample count");
    if (noise_seed != 0)
        srand(noise_seed);
    design_filters();
    for (t = 0; t < sample_count; t++)
        process_sample(synthesize_sample(t));
    best = loudest_channel();
    printf("channels=%d samples=%d\n", channel_count, sample_count);
    printf("loudest=%d at %.1f Hz, energy=%.4f\n",
           best, center_frequency(best), total_energy());
    return 0;
}
