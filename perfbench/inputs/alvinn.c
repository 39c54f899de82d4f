/*
 * alvinn -- back-propagation training of a small feed-forward neural
 * network, after the SPEC92 benchmark of the same name (which trained
 * the ALVINN road-following network).
 *
 * Numerical category: control flow is almost entirely counted loops
 * over the weight matrices.
 *
 * Input: "inputs hidden outputs patterns epochs seed" as integers.
 */

#define MAX_IN      32
#define MAX_HIDDEN  16
#define MAX_OUT     8
#define MAX_PATTERN 24

double weight_ih[MAX_IN][MAX_HIDDEN];
double weight_ho[MAX_HIDDEN][MAX_OUT];
double bias_h[MAX_HIDDEN];
double bias_o[MAX_OUT];

double pattern_in[MAX_PATTERN][MAX_IN];
double pattern_out[MAX_PATTERN][MAX_OUT];

double activation_h[MAX_HIDDEN];
double activation_o[MAX_OUT];
double delta_h[MAX_HIDDEN];
double delta_o[MAX_OUT];

int n_in, n_hidden, n_out, n_patterns, n_epochs;
double learning_rate;

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

double small_random(void)
{
    return ((double)(rand() % 2000) - 1000.0) / 2500.0;
}

void initialize_weights(void)
{
    int i, j;
    for (i = 0; i < n_in; i++)
        for (j = 0; j < n_hidden; j++)
            weight_ih[i][j] = small_random();
    for (i = 0; i < n_hidden; i++) {
        bias_h[i] = small_random();
        for (j = 0; j < n_out; j++)
            weight_ho[i][j] = small_random();
    }
    for (j = 0; j < n_out; j++)
        bias_o[j] = small_random();
}

/* Synthetic but deterministic training set. */
void build_patterns(void)
{
    int p, i, j;
    for (p = 0; p < n_patterns; p++) {
        for (i = 0; i < n_in; i++)
            pattern_in[p][i] =
                sin(0.7 * (double)(p + 1) * (double)(i + 1)) * 0.5;
        for (j = 0; j < n_out; j++)
            pattern_out[p][j] = ((p + j) % 2 == 0) ? 0.8 : 0.2;
    }
}

double sigmoid(double x)
{
    return 1.0 / (1.0 + exp(-x));
}

void forward(double *input)
{
    int i, j;
    for (j = 0; j < n_hidden; j++) {
        double sum = bias_h[j];
        for (i = 0; i < n_in; i++)
            sum += input[i] * weight_ih[i][j];
        activation_h[j] = sigmoid(sum);
    }
    for (j = 0; j < n_out; j++) {
        double sum = bias_o[j];
        for (i = 0; i < n_hidden; i++)
            sum += activation_h[i] * weight_ho[i][j];
        activation_o[j] = sigmoid(sum);
    }
}

void backward(double *input, double *target)
{
    int i, j;
    for (j = 0; j < n_out; j++) {
        double out = activation_o[j];
        delta_o[j] = (target[j] - out) * out * (1.0 - out);
    }
    for (i = 0; i < n_hidden; i++) {
        double sum = 0.0;
        for (j = 0; j < n_out; j++)
            sum += delta_o[j] * weight_ho[i][j];
        delta_h[i] = sum * activation_h[i] * (1.0 - activation_h[i]);
    }
    for (i = 0; i < n_hidden; i++)
        for (j = 0; j < n_out; j++)
            weight_ho[i][j] += learning_rate * delta_o[j] * activation_h[i];
    for (j = 0; j < n_out; j++)
        bias_o[j] += learning_rate * delta_o[j];
    for (i = 0; i < n_in; i++)
        for (j = 0; j < n_hidden; j++)
            weight_ih[i][j] += learning_rate * delta_h[j] * input[i];
    for (j = 0; j < n_hidden; j++)
        bias_h[j] += learning_rate * delta_h[j];
}

double pattern_error(double *target)
{
    int j;
    double total = 0.0;
    for (j = 0; j < n_out; j++) {
        double diff = target[j] - activation_o[j];
        total += diff * diff;
    }
    return total;
}

double train_epoch(void)
{
    int p;
    double total = 0.0;
    for (p = 0; p < n_patterns; p++) {
        forward(pattern_in[p]);
        backward(pattern_in[p], pattern_out[p]);
        total += pattern_error(pattern_out[p]);
    }
    return total;
}

int count_correct(void)
{
    int p, j, correct;
    correct = 0;
    for (p = 0; p < n_patterns; p++) {
        int all_match = 1;
        forward(pattern_in[p]);
        for (j = 0; j < n_out; j++) {
            int want_high = pattern_out[p][j] > 0.5;
            int got_high = activation_o[j] > 0.5;
            if (want_high != got_high)
                all_match = 0;
        }
        correct += all_match;
    }
    return correct;
}

int main(void)
{
    int epoch, seed;
    double error = 0.0;
    n_in = read_int();
    n_hidden = read_int();
    n_out = read_int();
    n_patterns = read_int();
    n_epochs = read_int();
    seed = read_int();
    if (n_in < 1 || n_in > MAX_IN || n_hidden < 1 ||
        n_hidden > MAX_HIDDEN || n_out < 1 || n_out > MAX_OUT)
        die("bad network shape");
    if (n_patterns < 1 || n_patterns > MAX_PATTERN ||
        n_epochs < 1 || n_epochs > 200)
        die("bad training parameters");
    srand(seed);
    learning_rate = 0.4;
    initialize_weights();
    build_patterns();
    for (epoch = 0; epoch < n_epochs; epoch++)
        error = train_epoch();
    printf("epochs=%d error=%.4f correct=%d/%d\n",
           n_epochs, error, count_correct(), n_patterns);
    return 0;
}
