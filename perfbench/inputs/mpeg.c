/*
 * mpeg -- the compute core of a video coder: 8x8 discrete cosine
 * transform, quantization, zig-zag scan, run-length coding, then the
 * inverse path and a distortion measurement, over a sequence of
 * synthesized frames.
 *
 * Numerical category with a run-length stage that adds data-dependent
 * branches.
 *
 * Input: "frames blocks_per_frame quality seed" as integers
 * (quality 1..31 scales the quantizer).
 */

#define BLOCK 8

double cos_table[BLOCK][BLOCK];
int quant_matrix[BLOCK][BLOCK];

int pixel_block[BLOCK][BLOCK];
double dct_block[BLOCK][BLOCK];
int quantized[BLOCK][BLOCK];
int zigzag_order[BLOCK * BLOCK];
int scanned[BLOCK * BLOCK];
int runs[BLOCK * BLOCK * 2];
int reconstructed[BLOCK][BLOCK];

int frame_count, blocks_per_frame, quality;
long total_bits;
double total_error;
int total_zero_runs;

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

void build_tables(void)
{
    int i, j;
    for (i = 0; i < BLOCK; i++)
        for (j = 0; j < BLOCK; j++)
            cos_table[i][j] =
                cos((2.0 * (double)i + 1.0) * (double)j *
                    3.14159265358979 / 16.0);
    for (i = 0; i < BLOCK; i++)
        for (j = 0; j < BLOCK; j++)
            quant_matrix[i][j] = 8 + (i + j) * quality;
    /* Standard zig-zag scan order. */
    {
        int order = 0;
        int diagonal;
        for (diagonal = 0; diagonal < 2 * BLOCK - 1; diagonal++) {
            if (diagonal % 2 == 0) {
                int row = diagonal < BLOCK ? diagonal : BLOCK - 1;
                int col = diagonal - row;
                while (row >= 0 && col < BLOCK) {
                    zigzag_order[order++] = row * BLOCK + col;
                    row--;
                    col++;
                }
            } else {
                int col = diagonal < BLOCK ? diagonal : BLOCK - 1;
                int row = diagonal - col;
                while (col >= 0 && row < BLOCK) {
                    zigzag_order[order++] = row * BLOCK + col;
                    row++;
                    col--;
                }
            }
        }
    }
}

/* Synthesized source block: gradient + texture + noise. */
void make_block(int frame, int index)
{
    int i, j;
    for (i = 0; i < BLOCK; i++)
        for (j = 0; j < BLOCK; j++) {
            int base = 16 * i + 8 * j + 11 * frame + 5 * index;
            int texture = (rand() % 32) - 16;
            pixel_block[i][j] = (base % 200) + texture + 28;
        }
}

double dct_temp[BLOCK][BLOCK];

/* Separable DCT: transform rows, then columns (the standard trick). */
void forward_dct(void)
{
    int u, v, i, j;
    for (i = 0; i < BLOCK; i++)
        for (v = 0; v < BLOCK; v++) {
            double sum = 0.0;
            for (j = 0; j < BLOCK; j++)
                sum += (double)(pixel_block[i][j] - 128) * cos_table[j][v];
            dct_temp[i][v] = sum;
        }
    for (u = 0; u < BLOCK; u++)
        for (v = 0; v < BLOCK; v++) {
            double sum = 0.0;
            double cu = u == 0 ? 0.70710678 : 1.0;
            double cv = v == 0 ? 0.70710678 : 1.0;
            for (i = 0; i < BLOCK; i++)
                sum += dct_temp[i][v] * cos_table[i][u];
            dct_block[u][v] = 0.25 * cu * cv * sum;
        }
}

void quantize(void)
{
    int i, j;
    for (i = 0; i < BLOCK; i++)
        for (j = 0; j < BLOCK; j++) {
            double scaled = dct_block[i][j] / (double)quant_matrix[i][j];
            if (scaled >= 0.0)
                quantized[i][j] = (int)(scaled + 0.5);
            else
                quantized[i][j] = -((int)(0.5 - scaled));
        }
}

void zigzag_scan(void)
{
    int k;
    for (k = 0; k < BLOCK * BLOCK; k++) {
        int position = zigzag_order[k];
        scanned[k] = quantized[position / BLOCK][position % BLOCK];
    }
}

/* Run-length code the scan; returns the number of (run, level) pairs. */
int run_length_encode(void)
{
    int k, pairs, zero_run;
    pairs = 0;
    zero_run = 0;
    for (k = 0; k < BLOCK * BLOCK; k++) {
        if (scanned[k] == 0) {
            zero_run++;
        } else {
            runs[pairs * 2] = zero_run;
            runs[pairs * 2 + 1] = scanned[k];
            pairs++;
            total_zero_runs += zero_run;
            zero_run = 0;
        }
    }
    return pairs;
}

int level_bits(int level)
{
    int magnitude = level < 0 ? -level : level;
    int bits = 1;
    while (magnitude > 1) {
        magnitude /= 2;
        bits++;
    }
    return bits;
}

long code_cost(int pairs)
{
    int p;
    long bits = 8; /* end-of-block marker */
    for (p = 0; p < pairs; p++)
        bits += 6 + level_bits(runs[p * 2 + 1]);
    return bits;
}

void inverse_path(void)
{
    int u, v, i, j;
    for (u = 0; u < BLOCK; u++)
        for (j = 0; j < BLOCK; j++) {
            double sum = 0.0;
            for (v = 0; v < BLOCK; v++) {
                double cv = v == 0 ? 0.70710678 : 1.0;
                sum += cv *
                       (double)(quantized[u][v] * quant_matrix[u][v]) *
                       cos_table[j][v];
            }
            dct_temp[u][j] = sum;
        }
    for (i = 0; i < BLOCK; i++)
        for (j = 0; j < BLOCK; j++) {
            double sum = 0.0;
            for (u = 0; u < BLOCK; u++) {
                double cu = u == 0 ? 0.70710678 : 1.0;
                sum += cu * dct_temp[u][j] * cos_table[i][u];
            }
            reconstructed[i][j] = (int)(0.25 * sum) + 128;
        }
}

double block_distortion(void)
{
    int i, j;
    double total = 0.0;
    for (i = 0; i < BLOCK; i++)
        for (j = 0; j < BLOCK; j++) {
            double diff = (double)(pixel_block[i][j] -
                                   reconstructed[i][j]);
            total += diff * diff;
        }
    return total / (double)(BLOCK * BLOCK);
}

void encode_frame(int frame)
{
    int index, pairs;
    for (index = 0; index < blocks_per_frame; index++) {
        make_block(frame, index);
        forward_dct();
        quantize();
        zigzag_scan();
        pairs = run_length_encode();
        total_bits += code_cost(pairs);
        inverse_path();
        total_error += block_distortion();
    }
}

int main(void)
{
    int frame, seed;
    frame_count = read_int();
    blocks_per_frame = read_int();
    quality = read_int();
    seed = read_int();
    if (frame_count < 1 || frame_count > 50)
        die("bad frame count");
    if (blocks_per_frame < 1 || blocks_per_frame > 64)
        die("bad block count");
    if (quality < 1 || quality > 31)
        die("bad quality");
    srand(seed);
    build_tables();
    total_bits = 0;
    total_error = 0.0;
    total_zero_runs = 0;
    for (frame = 0; frame < frame_count; frame++)
        encode_frame(frame);
    printf("frames=%d blocks=%d bits=%ld\n",
           frame_count, frame_count * blocks_per_frame, total_bits);
    printf("mse=%.3f zero_runs=%d\n",
           total_error / (double)(frame_count * blocks_per_frame),
           total_zero_runs);
    return 0;
}
