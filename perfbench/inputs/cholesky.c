/*
 * cholesky -- Cholesky factorization of a symmetric positive-definite
 * matrix, with forward/back substitution to solve a linear system and
 * a residual check.
 *
 * Mirrors the paper's "cholesky" entry: a numerical program with
 * simple, loop-dominated control flow (the category where the plain
 * loop heuristic already orders blocks well).
 *
 * Input: first line is N, then N*N matrix entries and N right-hand
 * side entries as whitespace-separated integers; the matrix built is
 * A = M^T M + N*I so it is always positive definite.
 */

#define MAX_N 40

double matrix_m[MAX_N][MAX_N];
double matrix_a[MAX_N][MAX_N];
double factor_l[MAX_N][MAX_N];
double rhs[MAX_N];
double solution[MAX_N];
double work[MAX_N];
int n;

void fail(char *msg)
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
        fail("expected integer");
    while (c >= '0' && c <= '9') {
        value = value * 10 + (c - '0');
        c = getchar();
    }
    return sign * value;
}

void read_problem(void)
{
    int i, j;
    n = read_int();
    if (n < 1 || n > MAX_N)
        fail("bad dimension");
    for (i = 0; i < n; i++)
        for (j = 0; j < n; j++)
            matrix_m[i][j] = (double)read_int();
    for (i = 0; i < n; i++)
        rhs[i] = (double)read_int();
}

/* A = M^T M + n*I: symmetric positive definite by construction. */
void build_spd(void)
{
    int i, j, k;
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++) {
            double sum = 0.0;
            for (k = 0; k < n; k++)
                sum += matrix_m[k][i] * matrix_m[k][j];
            matrix_a[i][j] = sum;
        }
        matrix_a[i][i] += (double)n;
    }
}

void factorize(void)
{
    int i, j, k;
    for (j = 0; j < n; j++) {
        double diag = matrix_a[j][j];
        for (k = 0; k < j; k++)
            diag -= factor_l[j][k] * factor_l[j][k];
        if (diag <= 0.0)
            fail("matrix not positive definite");
        factor_l[j][j] = sqrt(diag);
        for (i = j + 1; i < n; i++) {
            double sum = matrix_a[i][j];
            for (k = 0; k < j; k++)
                sum -= factor_l[i][k] * factor_l[j][k];
            factor_l[i][j] = sum / factor_l[j][j];
        }
    }
}

void forward_substitute(void)
{
    int i, k;
    for (i = 0; i < n; i++) {
        double sum = rhs[i];
        for (k = 0; k < i; k++)
            sum -= factor_l[i][k] * work[k];
        work[i] = sum / factor_l[i][i];
    }
}

void back_substitute(void)
{
    int i, k;
    for (i = n - 1; i >= 0; i--) {
        double sum = work[i];
        for (k = i + 1; k < n; k++)
            sum -= factor_l[k][i] * solution[k];
        solution[i] = sum / factor_l[i][i];
    }
}

double residual_norm(void)
{
    int i, j;
    double worst = 0.0;
    for (i = 0; i < n; i++) {
        double row = 0.0;
        for (j = 0; j < n; j++)
            row += matrix_a[i][j] * solution[j];
        row -= rhs[i];
        if (row < 0.0)
            row = -row;
        if (row > worst)
            worst = row;
    }
    return worst;
}

double trace_of_l(void)
{
    int i;
    double total = 0.0;
    for (i = 0; i < n; i++)
        total += factor_l[i][i];
    return total;
}

int main(void)
{
    double residual;
    read_problem();
    build_spd();
    factorize();
    forward_substitute();
    back_substitute();
    residual = residual_norm();
    printf("n=%d trace=%.4f\n", n, trace_of_l());
    if (residual < 0.000001)
        printf("residual OK\n");
    else
        printf("residual %.6f too large\n", residual);
    return 0;
}
