/*
 * water -- molecular-dynamics simulation of a small system of water
 * molecules (Lennard-Jones pair forces plus a harmonic bond to a
 * lattice site), velocity-Verlet integration.
 *
 * Mirrors the paper's "water" entry: numerical, loop-dominated, with a
 * pair-interaction inner loop that dominates execution.
 *
 * Input: "molecules steps seed" as integers on one line.
 */

#define MAX_MOL 32

double pos_x[MAX_MOL], pos_y[MAX_MOL], pos_z[MAX_MOL];
double vel_x[MAX_MOL], vel_y[MAX_MOL], vel_z[MAX_MOL];
double force_x[MAX_MOL], force_y[MAX_MOL], force_z[MAX_MOL];
double home_x[MAX_MOL], home_y[MAX_MOL], home_z[MAX_MOL];

int molecule_count;
int step_count;
double time_step;

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

/* Deterministic pseudo-random doubles in [0, 1). */
double next_random(void)
{
    return (double)(rand() % 10000) / 10000.0;
}

void initialize(int seed)
{
    int i, side;
    srand(seed);
    side = 1;
    while (side * side * side < molecule_count)
        side++;
    for (i = 0; i < molecule_count; i++) {
        int cx = i % side;
        int cy = (i / side) % side;
        int cz = i / (side * side);
        home_x[i] = cx * 1.6;
        home_y[i] = cy * 1.6;
        home_z[i] = cz * 1.6;
        pos_x[i] = home_x[i] + 0.1 * (next_random() - 0.5);
        pos_y[i] = home_y[i] + 0.1 * (next_random() - 0.5);
        pos_z[i] = home_z[i] + 0.1 * (next_random() - 0.5);
        vel_x[i] = 0.2 * (next_random() - 0.5);
        vel_y[i] = 0.2 * (next_random() - 0.5);
        vel_z[i] = 0.2 * (next_random() - 0.5);
    }
}

void clear_forces(void)
{
    int i;
    for (i = 0; i < molecule_count; i++) {
        force_x[i] = 0.0;
        force_y[i] = 0.0;
        force_z[i] = 0.0;
    }
}

/* Lennard-Jones force between every molecule pair. */
void pair_forces(void)
{
    int i, j;
    for (i = 0; i < molecule_count; i++) {
        for (j = i + 1; j < molecule_count; j++) {
            double dx = pos_x[i] - pos_x[j];
            double dy = pos_y[i] - pos_y[j];
            double dz = pos_z[i] - pos_z[j];
            double r2 = dx * dx + dy * dy + dz * dz;
            double inv2, inv6, magnitude;
            if (r2 < 0.01)
                r2 = 0.01;
            if (r2 > 6.25)
                continue; /* beyond the cutoff */
            inv2 = 1.0 / r2;
            inv6 = inv2 * inv2 * inv2;
            magnitude = 24.0 * inv6 * (2.0 * inv6 - 1.0) * inv2;
            force_x[i] += magnitude * dx;
            force_y[i] += magnitude * dy;
            force_z[i] += magnitude * dz;
            force_x[j] -= magnitude * dx;
            force_y[j] -= magnitude * dy;
            force_z[j] -= magnitude * dz;
        }
    }
}

/* Harmonic tether to each molecule's lattice site. */
void bond_forces(void)
{
    int i;
    for (i = 0; i < molecule_count; i++) {
        force_x[i] += 2.5 * (home_x[i] - pos_x[i]);
        force_y[i] += 2.5 * (home_y[i] - pos_y[i]);
        force_z[i] += 2.5 * (home_z[i] - pos_z[i]);
    }
}

void integrate(void)
{
    int i;
    for (i = 0; i < molecule_count; i++) {
        vel_x[i] += time_step * force_x[i];
        vel_y[i] += time_step * force_y[i];
        vel_z[i] += time_step * force_z[i];
        pos_x[i] += time_step * vel_x[i];
        pos_y[i] += time_step * vel_y[i];
        pos_z[i] += time_step * vel_z[i];
    }
}

double kinetic_energy(void)
{
    int i;
    double total = 0.0;
    for (i = 0; i < molecule_count; i++)
        total += 0.5 * (vel_x[i] * vel_x[i] + vel_y[i] * vel_y[i] +
                        vel_z[i] * vel_z[i]);
    return total;
}

double potential_energy(void)
{
    int i, j;
    double total = 0.0;
    for (i = 0; i < molecule_count; i++) {
        double dx = pos_x[i] - home_x[i];
        double dy = pos_y[i] - home_y[i];
        double dz = pos_z[i] - home_z[i];
        total += 1.25 * (dx * dx + dy * dy + dz * dz);
        for (j = i + 1; j < molecule_count; j++) {
            double px = pos_x[i] - pos_x[j];
            double py = pos_y[i] - pos_y[j];
            double pz = pos_z[i] - pos_z[j];
            double r2 = px * px + py * py + pz * pz;
            double inv6;
            if (r2 < 0.01)
                r2 = 0.01;
            if (r2 > 6.25)
                continue;
            inv6 = 1.0 / (r2 * r2 * r2);
            total += 4.0 * inv6 * (inv6 - 1.0);
        }
    }
    return total;
}

int main(void)
{
    int step, seed;
    molecule_count = read_int();
    step_count = read_int();
    seed = read_int();
    if (molecule_count < 2 || molecule_count > MAX_MOL)
        die("bad molecule count");
    if (step_count < 1 || step_count > 500)
        die("bad step count");
    time_step = 0.004;
    initialize(seed);
    for (step = 0; step < step_count; step++) {
        clear_forces();
        pair_forces();
        bond_forces();
        integrate();
    }
    printf("molecules=%d steps=%d\n", molecule_count, step_count);
    printf("kinetic=%.4f potential=%.4f\n",
           kinetic_energy(), potential_energy());
    return 0;
}
